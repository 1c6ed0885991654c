package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/topology"
)

// reconcileSpec is one reconcile workload: how its controller is built
// and how its churn stream is shaped.
type reconcileSpec struct {
	probeWorkers int
	maxShed      int // a cap op sheds 1..maxShed replicas
	prefixRounds int // churn rounds the deterministic counts cover
	// roundSeconds is how long a churn round takes on the reference
	// host (2 cores); a run consumes --seconds / roundSeconds rounds
	// (half that per controller when traced), at least the prefix, and
	// enough for the step percentiles.
	roundSeconds float64
	stepCap      int // steps a mutation may take to reach clean
	// checkWorkers replays the prefix at ProbeWorkers 1, which must
	// give the same steps and session counts as probeWorkers.
	checkWorkers bool
	// build times one set-up of a controller journaling to journal.
	build func(journal string, probeWorkers int, traced bool) (*rig, error)
}

// roundLen is the number of mutations in one churn round.
const roundLen = 5

// reconcileSmall is the controller replicaplace reconcile builds with
// its defaults, at b = 4000: 24 nodes in 3 zones x 2 racks, a combo
// placement spread across racks, a rack adversary with s = 2, d = 1, and
// two moves per step.
var reconcileSmall = reconcileSpec{
	probeWorkers: 1,
	maxShed:      8,
	prefixRounds: 1,
	roundSeconds: 20,
	stepCap:      1000,
	build: func(journal string, probeWorkers int, traced bool) (*rig, error) {
		const n, r, s, planK, b, dfail = 24, 3, 2, 4, 4000, 1
		start := time.Now()
		topo, err := topology.UniformTree(n, 3, 2)
		if err != nil {
			return nil, err
		}
		comboStart := time.Now()
		combo, _, _, err := placement.BuildDefaultCombo(n, r, s, planK, b)
		if err != nil {
			return nil, err
		}
		spreadStart := time.Now()
		var tel placement.SpreadTelemetry
		pl, _, err := placement.SpreadAcrossDomainsWith(combo, topo, s, dfail,
			placement.SpreadOpts{Weighted: topo.Weighted(), Telemetry: &tel})
		if err != nil {
			return nil, err
		}
		spreadEnd := time.Now()
		rg, err := newRig(pl, topo, s, dfail, journal, probeWorkers, traced)
		if err != nil {
			return nil, err
		}
		rg.setup = time.Since(start)
		rg.combo = spreadStart.Sub(comboStart)
		rg.spread = spreadEnd.Sub(spreadStart)
		rg.tel = tel
		return rg, nil
	},
}

// reconcileLarge is the same journaled controller on 1000 nodes in 25
// zones x 20 racks holding 2000 zone-confined objects, against a rack
// adversary with s = 2, d = 2, probing over 2 workers. The placement is
// the fixed seed-7 layout of the repository's large-cluster benchmarks;
// the workload seed drives the churn stream.
var reconcileLarge = reconcileSpec{
	probeWorkers: 2,
	maxShed:      3,
	prefixRounds: 3,
	roundSeconds: 0.5,
	stepCap:      100,
	checkWorkers: true,
	build: func(journal string, probeWorkers int, traced bool) (*rig, error) {
		const s, dfail = 2, 2
		pl, err := zoneConfined(domN, domObjects, domR, domZones, 7)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		topo, err := topology.UniformHierarchy(domN, domZones, domRacks)
		if err != nil {
			return nil, err
		}
		rg, err := newRig(pl, topo, s, dfail, journal, probeWorkers, traced)
		if err != nil {
			return nil, err
		}
		rg.setup = time.Since(start)
		return rg, nil
	},
}

// rig is one built controller with its in-memory data plane.
type rig struct {
	ctrl    *controller.Controller
	mem     *controller.MemActuator
	timed   *timedActuator // nil when untraced
	topo    *topology.Topology
	journal string

	setup, combo, spread, newCtrl time.Duration
	tel                           placement.SpreadTelemetry
}

func newRig(pl *placement.Placement, topo *topology.Topology, s, dfail int, journal string, probeWorkers int, traced bool) (*rig, error) {
	rg := &rig{mem: controller.NewMemActuator(pl), topo: topo, journal: journal}
	var act controller.Actuator = rg.mem
	if traced {
		rg.timed = &timedActuator{inner: rg.mem}
		act = rg.timed
	}
	start := time.Now()
	ctrl, err := controller.New(pl, controller.Config{
		Topo:     topo,
		Level:    topology.Leaf,
		S:        s,
		DFail:    dfail,
		MaxMoves: 2,
		Actuator: act,
		Journal:  journal,
		Opts:     controller.Options{ProbeWorkers: probeWorkers},
	})
	if err != nil {
		return nil, err
	}
	rg.newCtrl = time.Since(start)
	rg.ctrl = ctrl
	return rg, nil
}

// stepDigest is what the worker-count cross-check compares per step.
type stepDigest struct {
	damage, baseline, moves int
	outcome                 controller.Outcome
}

// counts are a pass's work tallies over some span of its stream.
type counts struct {
	muts, steps, moves, writes int
	staleBaseline              int                    // mutations whose journal kept a lagging Baseline
	stats                      adversary.SessionStats // delta over the span
}

// reconcileResult is one pass over a churn stream.
type reconcileResult struct {
	stepMS  []float64
	total   counts       // the whole pass
	prefix  counts       // the first prefixRounds rounds
	digests []stepDigest // the prefix's steps
}

func runReconcile(cfg config, spec reconcileSpec) (*report, error) {
	rep := newReport()
	dir, err := os.MkdirTemp(stateDir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := func(name string) string { return filepath.Join(dir, name+".json") }

	var rg *rig
	var setups, combos, spreads, news []float64
	err = repeatSetUp(func() error {
		var err error
		if rg, err = spec.build(journal("main"), spec.probeWorkers, false); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, rg.setup.Seconds())
		combos = append(combos, ms(rg.combo))
		spreads = append(spreads, ms(rg.spread))
		news = append(news, ms(rg.newCtrl))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	rep.layers["controller.new_ms"] = median(news)
	if rg.tel.Evals > 0 {
		rep.layers["placement.combo_ms"] = median(combos)
		rep.layers["placement.spread_ms"] = median(spreads)
		rep.layers["placement.spread_evals"] = float64(rg.tel.Evals)
		rep.layers["placement.spread_memo_hits"] = float64(rg.tel.MemoHits)
		rep.layers["placement.spread_rebuilds"] = float64(rg.tel.Rebuilds)
	}

	rigs := []*rig{rg}
	if cfg.trace {
		traced, err := spec.build(journal("traced"), spec.probeWorkers, true)
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, traced)
	}
	rounds := cfg.seconds.Seconds() / spec.roundSeconds
	if cfg.trace {
		rounds /= 2 // the traced and untraced controllers share the run's time
	}
	results, err := reconcilePass(spec, cfg.seed, rigs, max(spec.prefixRounds, int(math.Round(rounds))), minSamples(0.9), &rep.tally)
	if err != nil {
		return nil, err
	}
	base := results[0]
	rep.e2e["ops_per_s"] = float64(base.total.muts) / (sum(base.stepMS) / 1000)
	rep.setPercentile("latency_ms_p50", base.stepMS, 0.5)
	rep.setPercentile("latency_ms_p90", base.stepMS, 0.9)
	setCountMetrics(rep.layers, base.prefix)

	if cfg.trace {
		traced := results[1]
		if msg := compareRuns(base, traced, false); msg != "" {
			rep.problem("traced and untraced controllers disagree on the first %d mutations: %s",
				base.prefix.muts, msg)
		}
		setTraceMetrics(rep.layers, traced, rigs[1])
		rep.layers["trace_overhead_pct"] = (sum(traced.stepMS)/sum(base.stepMS) - 1) * 100
	}

	if spec.checkWorkers {
		serial, err := spec.build(journal("serial"), 1, false)
		if err != nil {
			return nil, err
		}
		check, err := reconcilePass(spec, cfg.seed, []*rig{serial}, spec.prefixRounds, 0, &rep.tally)
		if err != nil {
			return nil, err
		}
		if msg := compareRuns(base, check[0], true); msg != "" {
			rep.problem("ProbeWorkers %d and 1 disagree on the first %d mutations: %s",
				spec.probeWorkers, base.prefix.muts, msg)
		}
	}
	return rep, nil
}

// reconcilePass feeds whole rounds of one churn stream to every rig in
// lockstep, at least rounds of them and until rig 0 has made minSteps
// calls: each mutation goes to each rig, and the rigs take turns
// call by call, in an order that alternates from turn to turn, so a
// drift in machine speed hits every rig alike. Every mutation is
// stepped to clean and checked; a failed one ends the pass. Cap ops
// resolve against rig 0's placement.
func reconcilePass(spec reconcileSpec, seed int64, rigs []*rig, rounds, minSteps int, t *tally) ([]*reconcileResult, error) {
	churn := newChurn(seed, rigs[0].topo, rigs[0].ctrl.Placement().NodeLoads(), spec.maxShed)
	prefixMuts := spec.prefixRounds * roundLen
	results := make([]*reconcileResult, len(rigs))
	stats0 := make([]adversary.SessionStats, len(rigs))
	for i, rg := range rigs {
		results[i] = &reconcileResult{}
		stats0[i] = rg.ctrl.SessionStats()
	}
	snapshot := func(c *counts, i int) {
		c.stats = statsDelta(rigs[i].ctrl.SessionStats(), stats0[i])
	}
	turn := 0
stream:
	for muts := 0; muts < rounds*roundLen || len(results[0].stepMS) < minSteps; {
		ops, err := churn.round()
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			mut := op.mut
			if op.shed > 0 {
				mut = churn.resolve(op, rigs[0].ctrl.Placement().NodeLoads())
			}
			lanes := make([]lane, len(rigs))
			for i := range lanes {
				lanes[i] = lane{rg: rigs[i], res: results[i]}
			}
			failed := false
			for pending := len(lanes); pending > 0; turn++ {
				for j := range lanes {
					l := &lanes[(j+turn)%len(lanes)]
					if l.done {
						continue
					}
					l.step(mut, spec.stepCap, muts < prefixMuts)
					if l.done {
						pending--
						t.record(fmt.Sprintf("mutation %d (%s)", muts, mut), l.err)
						l.res.total.muts++
						failed = failed || l.err != nil
					}
				}
			}
			muts++
			if muts == prefixMuts {
				for i, res := range results {
					res.prefix = res.total
					snapshot(&res.prefix, i)
				}
			}
			if failed {
				break stream
			}
		}
	}
	for i, res := range results {
		snapshot(&res.total, i)
	}
	return results, nil
}

// lane is one rig's progress through the current mutation.
type lane struct {
	rg    *rig
	res   *reconcileResult
	steps int
	done  bool
	err   error
}

// step makes the lane's next timed call, Apply first and Step after, and
// checks what it returns: the lane is done at clean, once the quiesced
// controller is checked, or at the first failure.
func (l *lane) step(mut controller.Mutation, stepCap int, inPrefix bool) {
	call := l.rg.ctrl.Step
	if l.steps == 0 {
		call = func() (*controller.StepReport, error) { return l.rg.ctrl.Apply(mut) }
	}
	start := time.Now()
	rep, err := call()
	l.res.record(rep, time.Since(start), inPrefix)
	l.steps++
	if err == nil {
		err = checkStep(rep)
	}
	switch {
	case err != nil:
	case rep.Outcome == controller.OutcomeClean:
		var stale bool
		stale, err = checkQuiesced(l.rg.ctrl, l.rg.mem, l.rg.journal)
		if stale {
			l.res.total.staleBaseline++
		}
	case l.steps == stepCap:
		err = fmt.Errorf("not clean after %d steps: %s (%s)", l.steps, rep.Outcome, rep.Reason)
	default:
		return
	}
	l.done, l.err = true, err
}

// record adds one timed Apply/Step call to the result.
func (res *reconcileResult) record(rep *controller.StepReport, d time.Duration, inPrefix bool) {
	res.stepMS = append(res.stepMS, ms(d))
	res.total.steps++
	if rep == nil {
		return
	}
	res.total.moves += len(rep.Moves)
	res.total.writes += journalWrites(rep)
	if inPrefix {
		res.digests = append(res.digests, stepDigest{rep.Damage, rep.Baseline, len(rep.Moves), rep.Outcome})
	}
}

// journalWrites counts the checkpoint writes a step made, from its
// report: one for a consumed mutation, and four per finished move
// (intent, prepared, added, quiesced). checkStep fails any step with
// another move result.
func journalWrites(rep *controller.StepReport) int {
	writes := 4 * len(rep.Moves)
	if rep.Mutation != nil {
		writes++
	}
	return writes
}

func statsDelta(now, before adversary.SessionStats) adversary.SessionStats {
	return adversary.SessionStats{
		Evals:        now.Evals - before.Evals,
		MemoHits:     now.MemoHits - before.MemoHits,
		WarmSeeds:    now.WarmSeeds - before.WarmSeeds,
		BracketSkips: now.BracketSkips - before.BracketSkips,
		NoopMoves:    now.NoopMoves - before.NoopMoves,
		Moves:        now.Moves - before.Moves,
		Rebuilds:     now.Rebuilds - before.Rebuilds,
		Visited:      now.Visited - before.Visited,
		Forks:        now.Forks - before.Forks,
		BatchProbes:  now.BatchProbes - before.BatchProbes,
		MemoEvicted:  now.MemoEvicted - before.MemoEvicted,
	}
}

// setCountMetrics sets the deterministic per-layer counts of a
// reconcile prefix.
func setCountMetrics(layers map[string]float64, c counts) {
	st := c.stats
	steps, evals := float64(c.steps), float64(st.Evals)
	layers["adversary.evals_per_step"] = ratio(evals, steps)
	layers["adversary.memo_hit_pct"] = 100 * ratio(float64(st.MemoHits), evals)
	layers["adversary.skip_pct"] = 100 * ratio(float64(st.BracketSkips+st.NoopMoves), evals)
	layers["adversary.warm_pct"] = 100 * ratio(float64(st.WarmSeeds), evals)
	layers["adversary.rebuilds"] = float64(st.Rebuilds)
	layers["adversary.states_per_eval"] = ratio(float64(st.Visited), evals)
	layers["adversary.batch_probes"] = ratio(float64(st.BatchProbes), steps)
	layers["adversary.forks"] = ratio(float64(st.Forks), steps)
	layers["controller.journal_writes_per_step"] = ratio(float64(c.writes), steps)
	layers["controller.steps_per_mutation"] = ratio(steps, float64(c.muts))
	layers["controller.moves_per_mutation"] = ratio(float64(c.moves), float64(c.muts))
	layers["controller.stale_baseline_muts"] = float64(c.staleBaseline)
}

// setTraceMetrics splits the traced pass's mean step time into
// actuation, journal writes and the rest (planning).
func setTraceMetrics(layers map[string]float64, traced *reconcileResult, rg *rig) {
	steps := float64(traced.total.steps)
	actuate := ratio(ms(rg.timed.busy), steps)
	write := median(rg.timed.gaps)
	journal := ratio(float64(traced.total.writes), steps) * write
	layers["controller.actuate_ms"] = actuate
	layers["controller.journal_write_ms"] = write
	layers["controller.journal_ms"] = journal
	layers["controller.plan_ms"] = ratio(sum(traced.stepMS), steps) - actuate - journal
	if data, err := rg.ctrl.Checkpoint().Encode(); err == nil {
		layers["controller.journal_bytes_per_write"] = float64(len(data))
	}
}

// compareRuns describes the first difference between two passes'
// prefixes, or returns "". ignoreForks drops the fork counts, which
// differ between probe worker counts (a serial session never forks).
func compareRuns(a, b *reconcileResult, ignoreForks bool) string {
	if len(a.digests) != len(b.digests) {
		return fmt.Sprintf("%d steps vs %d", len(a.digests), len(b.digests))
	}
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			return fmt.Sprintf("step %d: %+v vs %+v", i, a.digests[i], b.digests[i])
		}
	}
	sa, sb := a.prefix.stats, b.prefix.stats
	if ignoreForks {
		sa.Forks, sb.Forks = 0, 0
	}
	if sa != sb {
		return fmt.Sprintf("session counts %+v vs %+v", sa, sb)
	}
	return ""
}

// timedActuator wraps the data plane to time the controller's calls
// into it. The controller serializes actuator calls, so it needs no
// lock. Between a successful PrepareAdd and the CommitAdd that follows,
// and between CommitAdd and DropOld, the controller does nothing but
// write one journal record, so those gaps time a journal write.
type timedActuator struct {
	inner controller.Actuator
	busy  time.Duration // total time inside inner
	gaps  []float64     // journal-write gaps, ms
	// prepared and committed end the previous successful call whose
	// gap is still open (zero when none is).
	prepared, committed time.Time
}

func (a *timedActuator) timed(ctx context.Context, m controller.Move, call func(context.Context, controller.Move) error, openGap *time.Time) (time.Time, error) {
	start := time.Now()
	if !openGap.IsZero() {
		a.gaps = append(a.gaps, ms(start.Sub(*openGap)))
		*openGap = time.Time{}
	}
	err := call(ctx, m)
	end := time.Now()
	a.busy += end.Sub(start)
	return end, err
}

func (a *timedActuator) PrepareAdd(ctx context.Context, m controller.Move) error {
	var none time.Time
	end, err := a.timed(ctx, m, a.inner.PrepareAdd, &none)
	if err == nil {
		a.prepared = end
	}
	return err
}

func (a *timedActuator) CommitAdd(ctx context.Context, m controller.Move) error {
	end, err := a.timed(ctx, m, a.inner.CommitAdd, &a.prepared)
	if err == nil {
		a.committed = end
	}
	return err
}

func (a *timedActuator) DropOld(ctx context.Context, m controller.Move) error {
	_, err := a.timed(ctx, m, a.inner.DropOld, &a.committed)
	return err
}

func (a *timedActuator) Abort(ctx context.Context, m controller.Move) error {
	var none time.Time
	_, err := a.timed(ctx, m, a.inner.Abort, &none)
	return err
}
