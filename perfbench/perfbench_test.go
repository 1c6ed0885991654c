package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite attack_reference.json")

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}} {
		got, err := percentile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
}

// TestPercentileTenBeyond pins the ten-samples-beyond rule: p90 needs
// 100 samples, p50 needs 20.
func TestPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		q  float64
		ok int
	}{{0.9, 100}, {0.5, 20}} {
		if got := minSamples(tc.q); got != tc.ok {
			t.Errorf("minSamples(%g) = %d, want %d", tc.q, got, tc.ok)
		}
		if _, err := percentile(make([]float64, tc.ok), tc.q); err != nil {
			t.Errorf("p%g of %d samples: %v", tc.q*100, tc.ok, err)
		}
		if _, err := percentile(make([]float64, tc.ok-1), tc.q); err == nil {
			t.Errorf("p%g of %d samples: want an error, fewer than ten lie beyond it", tc.q*100, tc.ok-1)
		}
	}
}

// TestWindowedPercentile checks that a latency percentile is the median
// of per-window percentiles: a slowed stretch covering fewer than half
// the windows leaves it unchanged, a trailing partial window joins the
// one before it, and every window keeps the ten-samples-beyond rule.
func TestWindowedPercentile(t *testing.T) {
	xs := make([]float64, 0, 500)
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			x := float64(i)
			if w == 1 || w == 3 {
				x *= 3 // two of five windows run on a slowed host
			}
			xs = append(xs, x)
		}
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}} {
		got, err := windowedPercentile(xs, tc.q, 100)
		if err != nil || got != tc.want {
			t.Errorf("windowed p%g = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
		if pooled, _ := percentile(xs, tc.q); pooled == tc.want {
			t.Errorf("pooled p%g = %v: the slowed windows should move it", tc.q*100, pooled)
		}
	}
	// 250 samples make two windows, [0,100) and [100,250); their p50s are
	// 50 and 175, so the median is 112.5.
	ys := make([]float64, 250)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if got, err := windowedPercentile(ys, 0.5, 100); err != nil || got != 112.5 {
		t.Errorf("windowed p50 of 250 = %v, %v; want 112.5", got, err)
	}
	if _, err := windowedPercentile(ys[:99], 0.9, 100); err == nil {
		t.Errorf("windowed p90 of 99 samples: want an error, fewer than ten lie beyond it")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

// TestFailureAccounting injects a wrong damage into real attack results
// and a step whose damage exceeds its baseline: each must count as a
// failed operation, and the untouched results must not.
func TestFailureAccounting(t *testing.T) {
	pl, err := randplace.Generate(placement.Params{N: 13, B: 26, R: 3, S: 2, K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	node, err := adversary.WorstCase(pl, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Uniform(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := adversary.DomainWorstCase(pl, topo, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrongNode, wrongDom := node, dom
	wrongNode.Failed++
	wrongDom.Failed--

	var tl tally
	tl.record("node", checkNodeAttack(pl, 2, 3, node))
	tl.record("domain", checkDomainAttack(pl, topo, 2, 2, dom))
	tl.record("clean step", checkStep(&controller.StepReport{Baseline: 4, Damage: 4}))
	tl.record("reference", checkReference([]int{node.Failed}, 0, node.Failed))
	if tl.attempted != 4 || tl.failed != 0 {
		t.Fatalf("correct results: %d failed of %d: %v", tl.failed, tl.attempted, tl.errs)
	}
	tl.record("wrong node damage", checkNodeAttack(pl, 2, 3, wrongNode))
	tl.record("wrong domain damage", checkDomainAttack(pl, topo, 2, 2, wrongDom))
	tl.record("damage > baseline", checkStep(&controller.StepReport{Baseline: 4, Damage: 5}))
	tl.record("reference mismatch", checkReference([]int{node.Failed + 1}, 0, node.Failed))
	if tl.attempted != 8 || tl.failed != 4 || len(tl.errs) != 4 {
		t.Fatalf("injected failures: %d failed of %d (%v), want 4 of 8", tl.failed, tl.attempted, tl.errs)
	}
}

func TestChurnDeterministic(t *testing.T) {
	topo, loads := churnFixture(t)
	rounds := func(seed int64) [][]churnOp {
		c := newChurn(seed, topo, loads, 8)
		var out [][]churnOp
		for i := 0; i < 10; i++ {
			ops, err := c.round()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ops)
		}
		return out
	}
	if a, b := rounds(7), rounds(7); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 generated two different streams")
	}
	if a, b := rounds(7), rounds(8); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 generated the same stream")
	}
}

// TestChurnStreamsWellFormed checks the feasibility rules on many seeds:
// at most one node down at a time, only eligible nodes go down and each
// once, caps bind a rack that does not hold the down node and are lifted
// within the round, weights stay in range.
func TestChurnStreamsWellFormed(t *testing.T) {
	topo, loads := churnFixture(t)
	total := 0
	for _, l := range loads {
		total += l
	}
	for seed := int64(0); seed < 50; seed++ {
		c := newChurn(seed, topo, loads, 8)
		used := map[int]bool{}
		for {
			ops, err := c.round()
			if err != nil {
				break
			}
			if len(ops) != roundLen {
				t.Fatalf("seed %d: round of %d ops", seed, len(ops))
			}
			x := ops[0].mut.Node
			if k := ops[0].mut.Kind; k != controller.MutDrain && k != controller.MutFail {
				t.Fatalf("seed %d: round opens with %s", seed, k)
			}
			if used[x] || 2*loads[x]*len(loads) < total {
				t.Fatalf("seed %d: node %d taken down twice or below half the mean load", seed, x)
			}
			used[x] = true
			capOp, weight, lift, restore := ops[1], ops[2].mut, ops[3].mut, ops[4].mut
			if capOp.mut.Kind != controller.MutCap || capOp.shed < 1 || capOp.shed > 8 {
				t.Fatalf("seed %d: bad cap op %+v", seed, capOp)
			}
			for _, rack := range topo.Leaves() {
				if rack.Name == capOp.mut.Domain && holds(rack, x) {
					t.Fatalf("seed %d: cap on %s, which holds down node %d", seed, rack.Name, x)
				}
			}
			if weight.Kind != controller.MutWeight || weight.Weight < 1 || weight.Weight > 4 ||
				weight.Node < 0 || weight.Node >= topo.N {
				t.Fatalf("seed %d: bad weight op %v", seed, weight)
			}
			if lift.Kind != controller.MutCap || lift.Domain != capOp.mut.Domain || lift.Cap != 0 {
				t.Fatalf("seed %d: cap on %s not lifted: %v", seed, capOp.mut.Domain, lift)
			}
			if restore.Kind != controller.MutRestore || restore.Node != x {
				t.Fatalf("seed %d: round ends with %v, want restore %d", seed, restore, x)
			}
		}
		if len(used) == 0 {
			t.Fatalf("seed %d: no eligible node", seed)
		}
	}
}

// TestCheckQuiesced corrupts the journal of a quiesced controller: a
// journaled Baseline above the live one is reported as stale, and any
// other difference fails.
func TestCheckQuiesced(t *testing.T) {
	rg, err := smallSpec().build(filepath.Join(t.TempDir(), "journal.json"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if stale, err := checkQuiesced(rg.ctrl, rg.mem, rg.journal); stale || err != nil {
		t.Fatalf("fresh controller: stale %v, err %v", stale, err)
	}
	for _, tc := range []struct {
		name      string
		edit      func(ck *controller.Checkpoint)
		wantStale bool
		wantErr   bool
	}{
		{"baseline above live", func(ck *controller.Checkpoint) { ck.Baseline++ }, true, false},
		{"baseline below live", func(ck *controller.Checkpoint) { ck.Baseline-- }, false, true},
		{"applied differs", func(ck *controller.Checkpoint) { ck.Applied++ }, false, true},
	} {
		ck := rg.ctrl.Checkpoint()
		tc.edit(ck)
		data, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rg.journal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stale, err := checkQuiesced(rg.ctrl, rg.mem, rg.journal)
		if stale != tc.wantStale || (err != nil) != tc.wantErr {
			t.Errorf("%s: stale %v, err %v; want stale %v, error %v", tc.name, stale, err, tc.wantStale, tc.wantErr)
		}
	}
}

// TestFailedMutationEndsPass gives the controller a one-step cap, which
// no evacuation meets: the first mutation fails and ends the pass.
func TestFailedMutationEndsPass(t *testing.T) {
	spec := smallSpec()
	spec.stepCap = 1
	rg, err := spec.build(filepath.Join(t.TempDir(), "journal.json"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if _, err := reconcilePass(spec, 1, []*rig{rg}, 2, 0, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 1 || tl.failed != 1 {
		t.Fatalf("%d failed of %d attempted, want the pass to end at 1 of 1: %v", tl.failed, tl.attempted, tl.errs)
	}
}

// smallSpec is the reconcile workload at b = 240, small enough for tests.
func smallSpec() reconcileSpec {
	spec := reconcileSmall
	spec.build = func(journal string, probeWorkers int, traced bool) (*rig, error) {
		topo, err := topology.UniformTree(24, 3, 2)
		if err != nil {
			return nil, err
		}
		combo, _, _, err := placement.BuildDefaultCombo(24, 3, 2, 4, 240)
		if err != nil {
			return nil, err
		}
		pl, _, err := placement.SpreadAcrossDomains(combo, topo, 2, 1)
		if err != nil {
			return nil, err
		}
		return newRig(pl, topo, 2, 1, journal, probeWorkers, traced)
	}
	return spec
}

// TestChurnStreamsFeasible drives generated streams through a journaled
// controller on a small cluster: every mutation must reach clean within
// the step cap and pass every check.
func TestChurnStreamsFeasible(t *testing.T) {
	spec := smallSpec()
	spec.prefixRounds = 3
	for _, seed := range []int64{1, 2, 3} {
		rg, err := spec.build(filepath.Join(t.TempDir(), "journal.json"), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		if _, err := reconcilePass(spec, seed, []*rig{rg}, spec.prefixRounds, 0, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.attempted != spec.prefixRounds*roundLen || tl.failed != 0 {
			t.Errorf("seed %d: %d of %d mutations failed: %v", seed, tl.failed, tl.attempted, tl.errs)
		}
	}
}

func churnFixture(t *testing.T) (*topology.Topology, []int) {
	t.Helper()
	topo, err := topology.UniformTree(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	combo, _, _, err := placement.BuildDefaultCombo(24, 3, 2, 4, 400)
	if err != nil {
		t.Fatal(err)
	}
	return topo, combo.NodeLoads()
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables in main.go
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what  string
		file  []struct{ Name, Unit string }
		table []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range tc.file {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, tc.table) {
			t.Errorf("%s: BENCHMARK.json lists\n  %v\nthe program\n  %v", tc.what, got, tc.table)
		}
	}
	for name := range detMetrics {
		found := false
		for _, m := range perLayer {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("deterministic metric %s is not a per-layer metric", name)
		}
	}
}

// TestAttackReference checks the first requests of defaultSeed against
// the reference table; with -update it rewrites the table.
func TestAttackReference(t *testing.T) {
	const tableLen = 40
	topo, err := topology.UniformHierarchy(domN, domZones, domRacks)
	if err != nil {
		t.Fatal(err)
	}
	var reference []int
	if err := json.Unmarshal(attackReferenceJSON, &reference); err != nil {
		t.Fatal(err)
	}
	n := tableLen
	if !*update {
		n = attackMix // one full mix cycle
		if len(reference) < n {
			t.Fatalf("reference table has %d entries; run with -update", len(reference))
		}
	}
	rng := rand.New(rand.NewSource(defaultSeed))
	var damages []int
	for i := 0; i < n; i++ {
		send, err := newAttackRequest(i, rng.Int63(), topo)
		if err != nil {
			t.Fatal(err)
		}
		_, damage, err := send()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		damages = append(damages, damage)
	}
	if *update {
		data, err := json.Marshal(damages)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("attack_reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(damages, reference[:n]) {
		t.Errorf("damages %v, reference %v", damages, reference[:n])
	}
}
