package adversary

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file is the differential safety net for the unified search core:
// all six engines (plus the parallel variants) against independent
// brute-force references, across node, domain, and constrained modes,
// and the node↔domain isomorphism that pins one budget/visited-state
// semantics for both levels.

// testWorkerCounts returns the worker counts the parallel engines are
// exercised with. CI sets ADVERSARY_TEST_WORKERS to force an
// oversubscribed count under the race detector.
func testWorkerCounts(t *testing.T) []int {
	counts := []int{2, 4}
	if v := os.Getenv("ADVERSARY_TEST_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("ADVERSARY_TEST_WORKERS = %q: want a positive integer", v)
		}
		counts = append(counts, n)
	}
	return counts
}

// TestDifferentialNodeEngines: the node trio and its parallel variant
// versus the independent subset-enumeration reference.
func TestDifferentialNodeEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	workerCounts := testWorkerCounts(t)
	for trial := 0; trial < 15; trial++ {
		n := 7 + rng.Intn(5)
		r := 2 + rng.Intn(3)
		b := 8 + rng.Intn(25)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(n-2)
		pl := randomPlacement(rng, n, r, b)
		want := referenceWorst(pl, s, k)

		ex, err := Attack(pl, Target{S: s, K: k}, SearchOpts{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		bnb, err := Attack(pl, Target{S: s, K: k}, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Attack(pl, Target{S: s, K: k}, SearchOpts{Engine: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]Result{"Exhaustive": ex, "WorstCase": bnb} {
			if res.Failed != want || !res.Exact {
				t.Errorf("trial %d (n=%d r=%d b=%d s=%d k=%d): %s = {failed %d, exact %v}, reference %d",
					trial, n, r, b, s, k, name, res.Failed, res.Exact, want)
			}
		}
		if greedy.Failed > want {
			t.Errorf("trial %d: Greedy %d exceeds reference %d", trial, greedy.Failed, want)
		}
		for _, workers := range workerCounts {
			par, err := Attack(pl, Target{S: s, K: k}, SearchOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Failed != want || !par.Exact {
				t.Errorf("trial %d: WorstCaseParallel(%d workers) = {failed %d, exact %v}, reference %d",
					trial, workers, par.Failed, par.Exact, want)
			}
		}
		// Every witness reproduces its claimed damage.
		for name, res := range map[string]Result{"Exhaustive": ex, "WorstCase": bnb, "Greedy": greedy} {
			if f := pl.FailedObjects(combin.NewBitsetFrom(n, res.Nodes), s); f != res.Failed {
				t.Errorf("trial %d: %s witness reproduces %d, reported %d", trial, name, f, res.Failed)
			}
		}
	}
}

// TestDifferentialDomainEngines: the domain trio and its parallel
// variant versus the independent reference, on random topologies.
func TestDifferentialDomainEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	workerCounts := testWorkerCounts(t)
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(6)
		r := 2 + rng.Intn(3)
		b := 8 + rng.Intn(25)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains())
		want := referenceDomainWorst(pl, topo, s, d)

		ex, err := Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		bnb, err := Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]Result{"DomainExhaustive": ex, "DomainWorstCase": bnb} {
			if res.Failed != want || !res.Exact {
				t.Errorf("trial %d (n=%d D=%d s=%d d=%d): %s = {failed %d, exact %v}, reference %d",
					trial, n, topo.NumDomains(), s, d, name, res.Failed, res.Exact, want)
			}
		}
		if greedy.Failed > want {
			t.Errorf("trial %d: DomainGreedy %d exceeds reference %d", trial, greedy.Failed, want)
		}
		for _, workers := range workerCounts {
			par, err := Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Failed != want || !par.Exact {
				t.Errorf("trial %d: DomainWorstCasePar(%d workers) = {failed %d, exact %v}, reference %d",
					trial, workers, par.Failed, par.Exact, want)
			}
			if f := pl.FailedObjects(topo.FailedSet(par.Domains), s); f != par.Failed {
				t.Errorf("trial %d: parallel witness %v reproduces %d, reported %d",
					trial, par.Domains, f, par.Failed)
			}
		}
	}
}

// referenceConstrainedWorstEff is an independent reference for the
// constrained engines' documented semantics: for every d-subset of
// domains the attacker fails min(k, nodes available) nodes inside it
// (referenceConstrainedWorst instead discards undersized domain unions
// outright, so it only agrees when every d-subset can host k nodes).
// The decomposition — per-subset node enumeration from scratch — shares
// no code with the engines' ordered incremental search.
func referenceConstrainedWorstEff(pl *placement.Placement, topo *topology.Topology, s, k, d int) int {
	worst := 0
	combin.ForEachSubset(topo.NumDomains(), d, func(domains []int) bool {
		allowed := topo.FailedSet(domains).Members(nil)
		kEff := k
		if len(allowed) < kEff {
			kEff = len(allowed)
		}
		combin.ForEachSubset(len(allowed), kEff, func(idxs []int) bool {
			nodes := make([]int, len(idxs))
			for i, idx := range idxs {
				nodes[i] = allowed[idx]
			}
			if f := pl.FailedObjects(combin.NewBitsetFrom(pl.N, nodes), s); f > worst {
				worst = f
			}
			return true
		})
		return true
	})
	return worst
}

// TestDifferentialConstrainedEngines: the constrained attack under every
// engine, serial and parallel, versus the independent
// filtered-enumeration reference.
func TestDifferentialConstrainedEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	workerCounts := testWorkerCounts(t)
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(4)
		r := 2 + rng.Intn(2)
		b := 8 + rng.Intn(20)
		s := 1 + rng.Intn(r)
		pl := randomPlacement(rng, n, r, b)
		racks := 3 + rng.Intn(2)
		topo, err := topology.Uniform(n, racks)
		if err != nil {
			t.Fatal(err)
		}
		d := 1 + rng.Intn(racks)
		k := 1 + rng.Intn(4)
		want := referenceConstrainedWorstEff(pl, topo, s, k, d)

		target := Target{S: s, K: k, D: d, Topo: topo}
		serial := map[Engine]Result{}
		for _, engine := range []Engine{BranchAndBound, Exhaustive, Greedy} {
			res, err := Attack(pl, target, SearchOpts{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			serial[engine] = res
		}
		for _, engine := range []Engine{BranchAndBound, Exhaustive} {
			if res := serial[engine]; res.Failed != want || !res.Exact {
				t.Errorf("trial %d (n=%d racks=%d s=%d k=%d d=%d): engine %d = {failed %d, exact %v}, reference %d",
					trial, n, racks, s, k, d, engine, res.Failed, res.Exact, want)
			}
		}
		if g := serial[Greedy]; g.Failed > want {
			t.Errorf("trial %d: constrained Greedy %d exceeds reference %d", trial, g.Failed, want)
		}
		// Every engine's subset sweep returns the serial attack at any
		// worker count, and every witness is a valid constrained attack.
		for _, workers := range workerCounts {
			for engine, want := range serial {
				par, err := Attack(pl, target, SearchOpts{Engine: engine, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Failed != want.Failed || par.Exact != want.Exact ||
					!reflect.DeepEqual(par.Nodes, want.Nodes) || !reflect.DeepEqual(par.Domains, want.Domains) {
					t.Errorf("trial %d: engine %d at %d workers = %+v, serial %+v", trial, engine, workers, par, want)
				}
				if len(par.Domains) > d {
					t.Errorf("trial %d: witness spans %d domains, budget %d", trial, len(par.Domains), d)
				}
				if f := pl.FailedObjects(combin.NewBitsetFrom(n, par.Nodes), s); f != par.Failed {
					t.Errorf("trial %d: witness reproduces %d, reported %d", trial, f, par.Failed)
				}
			}
		}
	}
}

// TestDifferentialBoundAblation pins the -bound ablation switch across
// all three attack modes: the residual-load bound returns exactly the
// static bound's result — damage (== the exhaustive reference), witness,
// exactness — while never visiting more states. Witness equality holds
// because both modes walk the same tree with the same incumbent
// evolution; residual only removes subtrees that cannot improve it.
func TestDifferentialBoundAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	staticOpts := func() SearchOpts { return SearchOpts{Bound: search.BoundStatic} }
	residOpts := func() SearchOpts { return SearchOpts{} } // zero value = residual
	var tighter int
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(6)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(n-2)
		pl := randomPlacement(rng, n, r, b)
		topo := randomTopology(rng, n)
		d := 1 + rng.Intn(topo.NumDomains())
		kc := 1 + rng.Intn(4)

		type run struct {
			name   string
			exact  int
			search func(SearchOpts) (int, []int, bool, int64)
		}
		nodeRef, err := Attack(pl, Target{S: s, K: k}, SearchOpts{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		domRef, err := Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		conRef, err := Attack(pl, Target{S: s, K: kc, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		asNode := func(res Result, err error) (int, []int, bool, int64) {
			if err != nil {
				t.Fatal(err)
			}
			return res.Failed, res.Nodes, res.Exact, res.Visited
		}
		asDom := func(res Result, err error) (int, []int, bool, int64) {
			if err != nil {
				t.Fatal(err)
			}
			return res.Failed, res.Nodes, res.Exact, res.Visited
		}
		runs := []run{
			{"node", nodeRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) { return asNode(Attack(pl, Target{S: s, K: k}, o)) }},
			{"domain", domRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) {
					return asDom(Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, o))
				}},
			{"constrained", conRef.Failed,
				func(o SearchOpts) (int, []int, bool, int64) {
					return asDom(Attack(pl, Target{S: s, K: kc, D: d, Topo: topo, Level: topology.Leaf}, o))
				}},
		}
		for _, r := range runs {
			sFailed, sNodes, sExact, sVisited := r.search(staticOpts())
			rFailed, rNodes, rExact, rVisited := r.search(residOpts())
			if sFailed != r.exact || rFailed != r.exact {
				t.Errorf("trial %d %s: damage static=%d residual=%d exhaustive=%d",
					trial, r.name, sFailed, rFailed, r.exact)
			}
			if !sExact || !rExact {
				t.Errorf("trial %d %s: unbounded searches not exact (static %v, residual %v)",
					trial, r.name, sExact, rExact)
			}
			if !reflect.DeepEqual(sNodes, rNodes) {
				t.Errorf("trial %d %s: witness diverged: static %v, residual %v",
					trial, r.name, sNodes, rNodes)
			}
			if rVisited > sVisited {
				t.Errorf("trial %d %s: residual visited %d > static %d",
					trial, r.name, rVisited, sVisited)
			}
			if rVisited < sVisited {
				tighter++
			}
		}
	}
	if tighter == 0 {
		t.Error("residual bound never pruned deeper than static on any engine — upkeep is likely broken")
	}
}

// TestNodeDomainIsomorphism pins the unified core: on a topology of
// singleton domains (domain i = {node i}), the node-level and
// domain-level engines run the very same search, so the full results —
// damage, witness node set, exactness AND visited-state counts — must be
// byte-identical, for the exhaustive, greedy, and branch-and-bound
// drivers alike.
func TestNodeDomainIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(5)
		r := 2 + rng.Intn(3)
		b := 10 + rng.Intn(30)
		s := 1 + rng.Intn(r)
		k := 1 + rng.Intn(n-2)
		pl := randomPlacement(rng, n, r, b)
		topo, err := topology.Uniform(n, n) // singleton domains
		if err != nil {
			t.Fatal(err)
		}

		type pair struct {
			node func() (Result, error)
			dom  func() (Result, error)
		}
		for name, p := range map[string]pair{
			"exhaustive": {
				node: func() (Result, error) { return Attack(pl, Target{S: s, K: k}, SearchOpts{Engine: Exhaustive}) },
				dom: func() (Result, error) {
					return Attack(pl, Target{S: s, D: k, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Exhaustive})
				},
			},
			"greedy": {
				node: func() (Result, error) { return Attack(pl, Target{S: s, K: k}, SearchOpts{Engine: Greedy}) },
				dom: func() (Result, error) {
					return Attack(pl, Target{S: s, D: k, Topo: topo, Level: topology.Leaf}, SearchOpts{Engine: Greedy})
				},
			},
			"worstcase": {
				node: func() (Result, error) { return Attack(pl, Target{S: s, K: k}, SearchOpts{}) },
				dom: func() (Result, error) {
					return Attack(pl, Target{S: s, D: k, Topo: topo, Level: topology.Leaf}, SearchOpts{})
				},
			},
		} {
			nres, err := p.node()
			if err != nil {
				t.Fatal(err)
			}
			dres, err := p.dom()
			if err != nil {
				t.Fatal(err)
			}
			if nres.Failed != dres.Failed || nres.Exact != dres.Exact || nres.Visited != dres.Visited {
				t.Errorf("trial %d %s: node {failed %d exact %v visited %d} != domain {failed %d exact %v visited %d}",
					trial, name, nres.Failed, nres.Exact, nres.Visited,
					dres.Failed, dres.Exact, dres.Visited)
			}
			if !reflect.DeepEqual(nres.Nodes, dres.Nodes) {
				t.Errorf("trial %d %s: node witness %v != domain witness %v",
					trial, name, nres.Nodes, dres.Nodes)
			}
		}
	}
}

// TestBudgetFrontierParity is the regression test for the budget
// accounting the unified core fixed: one budget semantics (each
// branch-and-bound state consumes one unit; greedy seeding is free)
// shared by the node- and domain-level engines. On singleton domains a
// given budget must exhaust at exactly the same frontier for both —
// same incumbent damage, same visited count (== the budget), and
// Exact = false on both sides.
func TestBudgetFrontierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	pl := randomPlacement(rng, 20, 3, 150)
	topo, err := topology.Uniform(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	const s, k = 2, 5
	full, err := Attack(pl, Target{S: s, K: k}, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Visited < 100 {
		t.Fatalf("instance too small to pin a frontier: %d states", full.Visited)
	}
	for _, budget := range []int64{1, 10, full.Visited / 2} {
		nres, err := Attack(pl, Target{S: s, K: k}, SearchOpts{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		dres, err := Attack(pl, Target{S: s, D: k, Topo: topo, Level: topology.Leaf}, SearchOpts{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if nres.Exact || dres.Exact {
			t.Errorf("budget %d: exactness claimed (node %v, domain %v)", budget, nres.Exact, dres.Exact)
		}
		if nres.Visited != budget || dres.Visited != budget {
			t.Errorf("budget %d: visited node %d, domain %d — one state per budget unit on both levels",
				budget, nres.Visited, dres.Visited)
		}
		if nres.Failed != dres.Failed {
			t.Errorf("budget %d: node incumbent %d != domain incumbent %d — frontiers diverged",
				budget, nres.Failed, dres.Failed)
		}
	}
	// And the unbudgeted runs agree state-for-state.
	dfull, err := Attack(pl, Target{S: s, D: k, Topo: topo, Level: topology.Leaf}, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if dfull.Visited != full.Visited || dfull.Failed != full.Failed {
		t.Errorf("exact runs diverge: node {failed %d, visited %d}, domain {failed %d, visited %d}",
			full.Failed, full.Visited, dfull.Failed, dfull.Visited)
	}
}
