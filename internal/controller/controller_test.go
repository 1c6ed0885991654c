package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/topology"
)

// ringPlacement lays object i on nodes {i, i+1, ..., i+r-1} mod n — a
// simple deterministic placement for controller-semantics tests.
func ringPlacement(t testing.TB, n, r, b int) *placement.Placement {
	t.Helper()
	pl := placement.NewPlacement(n, r)
	for i := 0; i < b; i++ {
		nodes := make([]int, r)
		for j := range nodes {
			nodes[j] = (i + j) % n
		}
		if err := pl.Add(nodes); err != nil {
			t.Fatal(err)
		}
	}
	return pl
}

// testOpts keeps unit tests fast: short call deadlines, no real sleeps.
func testOpts() Options {
	return Options{
		CallTimeout: 100 * time.Millisecond,
		Backoff:     time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
}

// opErrActuator injects faults at named operations ("prepare", "add",
// "drop", "abort"): fail[op] clean failures before the op, hang[op]
// blocks until the call deadline, crash[op] simulates the process
// dying at the Nth call to op (optionally after performing it).
type opErrActuator struct {
	inner Actuator
	mu    sync.Mutex
	fail  map[string]int
	hang  map[string]int
	crash map[string]crashPoint
	seen  map[string]int
}

type crashPoint struct {
	at    int  // 1-based call ordinal of op to crash on
	after bool // perform the inner op before crashing
}

func newOpErr(inner Actuator) *opErrActuator {
	return &opErrActuator{
		inner: inner,
		fail:  map[string]int{},
		hang:  map[string]int{},
		crash: map[string]crashPoint{},
		seen:  map[string]int{},
	}
}

func (a *opErrActuator) do(ctx context.Context, op string, call func() error) error {
	a.mu.Lock()
	a.seen[op]++
	if cp, ok := a.crash[op]; ok && a.seen[op] == cp.at {
		a.mu.Unlock()
		if cp.after {
			if err := call(); err != nil {
				return err
			}
		}
		return ErrCrashed
	}
	if a.fail[op] > 0 {
		a.fail[op]--
		a.mu.Unlock()
		return fmt.Errorf("injected %s failure", op)
	}
	if a.hang[op] > 0 {
		a.hang[op]--
		a.mu.Unlock()
		<-ctx.Done()
		return ctx.Err()
	}
	a.mu.Unlock()
	return call()
}

func (a *opErrActuator) PrepareAdd(ctx context.Context, m Move) error {
	return a.do(ctx, "prepare", func() error { return a.inner.PrepareAdd(ctx, m) })
}
func (a *opErrActuator) CommitAdd(ctx context.Context, m Move) error {
	return a.do(ctx, "add", func() error { return a.inner.CommitAdd(ctx, m) })
}
func (a *opErrActuator) DropOld(ctx context.Context, m Move) error {
	return a.do(ctx, "drop", func() error { return a.inner.DropOld(ctx, m) })
}
func (a *opErrActuator) Abort(ctx context.Context, m Move) error {
	return a.do(ctx, "abort", func() error { return a.inner.Abort(ctx, m) })
}

// newTestController wires a ring placement on Uniform(8, 4) racks with
// s = 2, d = 1 through the given actuator.
func newTestController(t *testing.T, act Actuator, maxMoves int, journal string) (*Controller, *placement.Placement) {
	t.Helper()
	topo, err := topology.Uniform(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := ringPlacement(t, 8, 3, 12)
	c, err := New(pl, Config{
		Topo:     topo,
		Level:    topology.Leaf,
		S:        2,
		DFail:    1,
		MaxMoves: maxMoves,
		Actuator: act,
		Journal:  journal,
		Opts:     testOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, pl
}

// checkReport asserts the never-degrade invariant on one step.
func checkReport(t *testing.T, rep *StepReport) {
	t.Helper()
	if rep.Damage > rep.Baseline {
		t.Fatalf("invariant violated: damage %d > baseline %d (outcome %s, reason %q)",
			rep.Damage, rep.Baseline, rep.Outcome, rep.Reason)
	}
}

// drainUntilQuiet steps the controller until a clean outcome (or the
// step bound trips), checking the invariant at every step.
func drainUntilQuiet(t *testing.T, c *Controller, bound int) *StepReport {
	t.Helper()
	var rep *StepReport
	var err error
	for i := 0; i < bound; i++ {
		rep, err = c.Step()
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep)
		if rep.Outcome == OutcomeClean {
			return rep
		}
		if rep.Outcome == OutcomeDegradedUnsafe || rep.Outcome == OutcomeDegradedStuck {
			t.Fatalf("step %d: stuck at %s: %s", i, rep.Outcome, rep.Reason)
		}
	}
	t.Fatalf("not quiesced after %d steps: %s (%s)", bound, rep.Outcome, rep.Reason)
	return nil
}

func TestControllerDrainEvacuates(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 2, filepath.Join(t.TempDir(), "ck.json"))

	rep, err := c.Apply(Mutation{Kind: MutDrain, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	drainUntilQuiet(t, c, 20)

	pl := c.Placement()
	if got := pl.NodeLoads()[0]; got != 0 {
		t.Fatalf("drained node 0 still holds %d replicas", got)
	}
	if diff := mem.Diff(pl, nil); diff != "" {
		t.Fatalf("physical/logical divergence: %s", diff)
	}
	if n := mem.PreparedCount(); n != 0 {
		t.Fatalf("leaked %d prepared copies", n)
	}
}

func TestControllerFailRestore(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 3, "")

	rep, err := c.Apply(Mutation{Kind: MutFail, Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	drainUntilQuiet(t, c, 20)
	if got := c.Placement().NodeLoads()[3]; got != 0 {
		t.Fatalf("failed node 3 still holds %d replicas", got)
	}

	rep, err = c.Apply(Mutation{Kind: MutRestore, Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.AtRisk != 0 {
		t.Fatalf("restore left %d at risk", rep.AtRisk)
	}
	if diff := mem.Diff(c.Placement(), nil); diff != "" {
		t.Fatalf("divergence after restore: %s", diff)
	}
}

func TestControllerRetryThenSuccess(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	act := newOpErr(mem)
	act.fail["prepare"] = 1 // one transient failure, retry succeeds
	c, _ := newTestController(t, act, 2, "")

	rep, err := c.Apply(Mutation{Kind: MutDrain, Node: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if len(rep.Moves) == 0 {
		t.Fatal("expected at least one move")
	}
	first := rep.Moves[0]
	if first.Result != MoveDone {
		t.Fatalf("move result = %s, want done (err %q)", first.Result, first.Err)
	}
	if first.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", first.Retries)
	}
}

func TestControllerRollbackOnPersistentFailure(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	act := newOpErr(mem)
	act.fail["add"] = 3 // default retries 2 -> all three attempts fail
	c, _ := newTestController(t, act, 2, "")
	before := c.Placement()

	rep, err := c.Apply(Mutation{Kind: MutDrain, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.Outcome != OutcomeDegradedStuck {
		t.Fatalf("outcome = %s, want %s", rep.Outcome, OutcomeDegradedStuck)
	}
	if rep.Moves[0].Result != MoveRolledBack {
		t.Fatalf("move result = %s, want rolled-back", rep.Moves[0].Result)
	}
	after := c.Placement()
	for obj := 0; obj < before.B(); obj++ {
		if !reflect.DeepEqual(before.ReplicaNodes(obj), after.ReplicaNodes(obj)) {
			t.Fatalf("rolled-back move mutated placement of object %d", obj)
		}
	}
	if diff := mem.Diff(after, nil); diff != "" {
		t.Fatalf("divergence after rollback: %s", diff)
	}
	if n := mem.PreparedCount(); n != 0 {
		t.Fatalf("rollback leaked %d prepared copies", n)
	}

	// Fault exhausted: the next steps complete the evacuation.
	drainUntilQuiet(t, c, 20)
	if got := c.Placement().NodeLoads()[2]; got != 0 {
		t.Fatalf("draining node 2 still holds %d replicas", got)
	}
}

func TestControllerStuckDropRollsForward(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	act := newOpErr(mem)
	act.fail["drop"] = 3 // past the point of no return, all attempts fail
	c, _ := newTestController(t, act, 1, "")

	rep, err := c.Apply(Mutation{Kind: MutDrain, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeDegradedStuck {
		t.Fatalf("outcome = %s, want %s", rep.Outcome, OutcomeDegradedStuck)
	}
	if rep.Moves[0].Result != MovePending {
		t.Fatalf("move result = %s, want pending", rep.Moves[0].Result)
	}
	fl := c.InFlightMove()
	if fl == nil || fl.Phase != PhaseAdded {
		t.Fatalf("in-flight = %+v, want phase added", fl)
	}

	// Next step recovers the pending drop (fault budget spent), then
	// keeps evacuating.
	drainUntilQuiet(t, c, 20)
	if c.InFlightMove() != nil {
		t.Fatal("in-flight move not cleared")
	}
	if got := c.Placement().NodeLoads()[1]; got != 0 {
		t.Fatalf("draining node 1 still holds %d replicas", got)
	}
	if diff := mem.Diff(c.Placement(), nil); diff != "" {
		t.Fatalf("divergence after roll-forward: %s", diff)
	}
}

func TestControllerCrashRecovery(t *testing.T) {
	cases := []struct {
		name  string
		op    string
		after bool
		phase Phase // journaled phase the crash must leave behind
	}{
		{"before-prepare", "prepare", false, PhaseIntent},
		{"after-prepare", "prepare", true, PhaseIntent},
		{"after-add", "add", true, PhasePrepared},
		{"before-drop", "drop", false, PhaseAdded},
		{"after-drop", "drop", true, PhaseAdded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "ck.json")
			mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
			act := newOpErr(mem)
			act.crash[tc.op] = crashPoint{at: 1, after: tc.after}
			c, _ := newTestController(t, act, 2, journal)

			_, err := c.Apply(Mutation{Kind: MutDrain, Node: 4})
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("Apply error = %v, want ErrCrashed", err)
			}

			ck, err := LoadCheckpoint(journal)
			if err != nil {
				t.Fatal(err)
			}
			if ck.InFlight == nil || ck.InFlight.Phase != tc.phase {
				t.Fatalf("journaled in-flight = %+v, want phase %s", ck.InFlight, tc.phase)
			}

			// Restart: the data plane (mem) survived; the process state is
			// rebuilt from the journal.
			c2, err := Load(journal, mem, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if c2.Applied() != 1 {
				t.Fatalf("applied = %d, want 1", c2.Applied())
			}
			rep, err := c2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Moves) != 1 || rep.Moves[0].Result == MovePending {
				t.Fatalf("recovery moves = %+v, want one resolved move", rep.Moves)
			}
			wantResult := MoveRolledBack
			if tc.phase == PhaseAdded {
				wantResult = MoveDone // point of no return: roll forward
			}
			if rep.Moves[0].Result != wantResult {
				t.Fatalf("recovered move result = %s, want %s", rep.Moves[0].Result, wantResult)
			}
			if c2.InFlightMove() != nil {
				t.Fatal("recovery left a move in flight")
			}
			if diff := mem.Diff(c2.Placement(), nil); diff != "" {
				t.Fatalf("divergence after recovery: %s", diff)
			}
			if n := mem.PreparedCount(); n != 0 {
				t.Fatalf("recovery leaked %d prepared copies", n)
			}
		})
	}
}

func TestControllerDegradedUnsafeNoTargets(t *testing.T) {
	topo, err := topology.Uniform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := ringPlacement(t, 4, 3, 4)
	c, err := New(pl, Config{
		Topo: topo, Level: topology.Leaf, S: 2, DFail: 1, MaxMoves: 2,
		Actuator: NewMemActuator(pl), Opts: testOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain every node but 0, then fail 0: no active target remains, so
	// the controller must degrade gracefully instead of moving.
	for nd := 1; nd < 4; nd++ {
		if _, err := c.Apply(Mutation{Kind: MutDrain, Node: nd}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Apply(Mutation{Kind: MutFail, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeDegradedUnsafe {
		t.Fatalf("outcome = %s (reason %q), want %s", rep.Outcome, rep.Reason, OutcomeDegradedUnsafe)
	}
	if len(rep.Moves) != 0 {
		t.Fatalf("moves = %+v, want none", rep.Moves)
	}
	if rep.AtRisk == 0 {
		t.Fatal("at-risk count should be non-zero")
	}
}

func TestControllerCapRepair(t *testing.T) {
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 2, "")

	rep, err := c.Apply(Mutation{Kind: MutCap, Domain: "rack0", Cap: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	rep = drainUntilQuiet(t, c, 20)
	if rep.CapExcess != 0 {
		t.Fatalf("cap excess = %d after quiesce, want 0", rep.CapExcess)
	}
	loads := c.Placement().NodeLoads()
	if got := loads[0] + loads[1]; got > 4 {
		t.Fatalf("rack0 load = %d, want <= 4", got)
	}
	if diff := mem.Diff(c.Placement(), nil); diff != "" {
		t.Fatalf("divergence after cap repair: %s", diff)
	}
}

func TestControllerMutationErrors(t *testing.T) {
	pl := ringPlacement(t, 8, 3, 12)
	c, _ := newTestController(t, NewMemActuator(pl), 2, "")

	var rangeErr *placement.RangeError
	if _, err := c.Apply(Mutation{Kind: MutDrain, Node: 99}); !errors.As(err, &rangeErr) {
		t.Fatalf("drain 99 error = %v, want RangeError", err)
	}
	if _, err := c.Apply(Mutation{Kind: MutCap, Domain: "nope", Cap: 3}); err == nil {
		t.Fatal("cap on unknown domain should fail")
	}
	if _, err := c.Apply(Mutation{Kind: MutWeight, Node: 0, Weight: 0}); err == nil {
		t.Fatal("weight 0 should fail")
	}
	if got := c.Applied(); got != 0 {
		t.Fatalf("failed mutations consumed stream position: applied = %d", got)
	}
}

func TestControllerJournalRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ck.json")
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 2, journal)

	muts := []Mutation{
		{Kind: MutWeight, Node: 6, Weight: 3},
		{Kind: MutCap, Domain: "rack1", Cap: 5},
		{Kind: MutDrain, Node: 7},
	}
	for _, m := range muts {
		if rep, err := c.Apply(m); err != nil {
			t.Fatal(err)
		} else {
			checkReport(t, rep)
		}
	}
	drainUntilQuiet(t, c, 20)

	c2, err := Load(journal, mem, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Applied() != len(muts) {
		t.Fatalf("applied = %d, want %d", c2.Applied(), len(muts))
	}
	a, b := c.Placement(), c2.Placement()
	for obj := 0; obj < a.B(); obj++ {
		if !reflect.DeepEqual(a.ReplicaNodes(obj), b.ReplicaNodes(obj)) {
			t.Fatalf("object %d differs after reload", obj)
		}
	}
	// The reloaded topology must carry the weight and cap mutations.
	ck := c2.Checkpoint()
	topo, _, _, err := ck.restore()
	if err != nil {
		t.Fatal(err)
	}
	if w := topo.Weight(6); w != 3 {
		t.Fatalf("reloaded weight(6) = %d, want 3", w)
	}
}

// TestControllerJournalsReevaluatedBaseline pins the journaled
// guarantee: a step lowers the damage, then a weight mutation's step
// re-evaluates that lower baseline and moves nothing, so no phase write
// carries it. The step must still journal it — the reloaded checkpoint
// re-encodes byte for byte to the live one.
func TestControllerJournalsReevaluatedBaseline(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ck.json")
	mem := NewMemActuator(ringPlacement(t, 8, 3, 12))
	c, _ := newTestController(t, mem, 1, journal)
	first, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Moves) == 0 || first.Damage >= first.Baseline {
		t.Fatalf("fixture: first step moved %d and took damage %d -> %d, want a damage-lowering move",
			len(first.Moves), first.Baseline, first.Damage)
	}
	rep, err := c.Apply(Mutation{Kind: MutWeight, Node: 6, Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 0 || rep.Baseline != first.Damage {
		t.Fatalf("fixture: weight step moved %d with baseline %d, want no move at baseline %d",
			len(rep.Moves), rep.Baseline, first.Damage)
	}
	ck, err := LoadCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Checkpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journaled checkpoint (Baseline %d) differs from the live one (Baseline %d)", ck.Baseline, c.Checkpoint().Baseline)
	}
}
