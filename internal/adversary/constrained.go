package adversary

import (
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file is the constrained attack: K node failures confined to at
// most D domains of the attack level, which bounds how much an attacker
// with the paper's node budget gains from correlation. It runs the
// chosen engine inside every D-subset of domains — one node-level
// search.HitInstance per worker, re-initialized per subset — and keeps
// the best attack over all subsets.

// constrained is the subset-independent preprocessing of a constrained
// attack: per-node hit lists and loads and the canonical candidate
// order, shared by every worker of the subset sweep.
type constrained struct {
	pl       *placement.Placement
	topo     *topology.Topology // flat attack-level view
	t        Target
	w        []int64        // optional per-object weights (nil = unit)
	nodeHits [][]search.Hit // per node, C = 1, objects ascending
	wloads   []int64        // per-node weighted loads Σ w[obj] (== loads when w nil)
	loaded   []int          // nodes with load, in canonical order
	empty    []int          // zero-load nodes, ascending id
}

func newConstrained(pl *placement.Placement, flat *topology.Topology, t Target, w []int64) *constrained {
	c := &constrained{pl: pl, topo: flat, t: t, w: w, nodeHits: nodeHits(pl)}
	c.wloads = weightedLoads(c.nodeHits, w)
	for node, hl := range c.nodeHits {
		if len(hl) > 0 {
			c.loaded = append(c.loaded, node)
		} else {
			c.empty = append(c.empty, node)
		}
	}
	byLoad(c.loaded, c.wloads)
	return c
}

// scratch holds one worker's reusable per-subset state: a HitInstance
// whose CSR arrays (and object counters, left balanced by the drivers)
// are recycled across every domain subset, plus the candidate slices.
type scratch struct {
	inst  *search.HitInstance
	cands []int
	lists [][]search.Hit
	loads []int64
}

// subsetInstance re-initializes the scratch instance restricted to the
// given domains: the attacker fails min(K, nodes available) nodes inside
// them (smaller unions simply yield smaller attacks).
func (c *constrained) subsetInstance(domains []int, sc *scratch) *instance {
	allowed := c.topo.FailedSet(domains)
	kEff := min(c.t.K, allowed.Count())
	sc.cands = sc.cands[:0]
	for _, node := range c.loaded {
		if allowed.Get(node) {
			sc.cands = append(sc.cands, node)
		}
	}
	// Pad with allowed zero-load nodes so the attack set can always
	// have kEff members (kEff <= allowed.Count() guarantees enough of
	// them exist).
	for _, node := range c.empty {
		if len(sc.cands) >= kEff {
			break
		}
		if allowed.Get(node) {
			sc.cands = append(sc.cands, node)
		}
	}
	sc.lists = sc.lists[:0]
	sc.loads = sc.loads[:0]
	for _, node := range sc.cands {
		sc.lists = append(sc.lists, c.nodeHits[node])
		sc.loads = append(sc.loads, c.wloads[node])
	}
	sc.inst.Reinit(kEff, sc.lists, sc.loads)
	sc.inst.SetWeights(c.w)
	return &instance{HitInstance: sc.inst, cands: sc.cands}
}

// subsetJob is one domain subset with its enumeration index.
type subsetJob struct {
	idx     int
	domains []int
}

// incumbent is the sweep's shared best attack and where it came from.
type incumbent struct {
	mu      sync.Mutex
	best    Result
	idx     int   // enumeration index of best's subset
	visited int64 // Σ per-subset visited states, for the budget-free engines
}

// sweep runs the engine inside every D-subset of domains and returns
// the best attack, ties going to the subset enumerated first. At one
// worker it runs inline in enumeration order; with more, one producer
// enumerates the C(domains, D) subsets and workers claim them from a
// channel, so expensive subsets don't serialize behind a static
// partition. The incumbent damage and (for branch-and-bound) the state
// budget are shared: a drained budget aborts the enumeration, and the
// skipped subsets make the result inexact.
//
// The result is the same at any worker count. A subset's
// branch-and-bound is seeded with the incumbent only when the
// incumbent's subset comes earlier in enumeration order (an equal attack
// found later must lose the tie) and with incumbent − 1 when it comes
// later (an equal attack found here must still be reported, so it can
// win the tie). Either way the first subset reaching the optimum M
// searches with a seed below M, which finds the same witness whatever
// that seed is.
func (c *constrained) sweep(opts SearchOpts) Result {
	bud := search.NewBudget(0)
	if opts.Engine == BranchAndBound {
		bud = search.NewBudget(opts.Budget)
	}
	inc := &incumbent{best: Result{Failed: -1, Exact: true}, idx: -1}
	aborted := false
	enumerate := func(yield func(subsetJob)) {
		idx := 0
		combin.ForEachSubset(c.topo.NumDomains(), c.t.D, func(domains []int) bool {
			if bud.Exhausted() {
				aborted = true
				return false
			}
			yield(subsetJob{idx, domains})
			idx++
			return true
		})
	}
	newScratch := func() *scratch { return &scratch{inst: search.NewHitInstance(c.t.S, c.pl.B())} }
	if workers := opts.resolveWorkers(); workers <= 1 {
		sc := newScratch()
		enumerate(func(j subsetJob) { c.solve(j, sc, inc, bud, opts) })
	} else {
		// aborted is written before the channel close the workers
		// observe, so reading it after Wait is race-free. Two queued
		// subsets per worker keep the producer ahead of the workers
		// without materializing the enumeration.
		jobs := make(chan subsetJob, 2*workers)
		go func() {
			defer close(jobs)
			enumerate(func(j subsetJob) {
				j.domains = append([]int(nil), j.domains...)
				jobs <- j
			})
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := newScratch()
				for j := range jobs {
					c.solve(j, sc, inc, bud, opts)
				}
			}()
		}
		wg.Wait()
	}
	best := inc.best
	if aborted {
		best.Exact = false
	}
	if best.Failed < 0 {
		best.Failed = 0
	}
	best.Visited = inc.visited
	if opts.Engine == BranchAndBound {
		best.Visited = bud.Used()
	}
	return best
}

// solve searches one domain subset and merges its attack into the
// incumbent on (Failed descending, enumeration index ascending).
func (c *constrained) solve(j subsetJob, sc *scratch, inc *incumbent, bud *search.Budget, opts SearchOpts) {
	in := c.subsetInstance(j.domains, sc)
	var sub search.Result
	switch opts.Engine {
	case Exhaustive:
		sub = search.Exhaustive(in)
	case Greedy:
		sub = search.Greedy(in)
		in.Reset() // the scratch instance is reused: leave it clean
	default:
		seed := search.Greedy(in)
		in.Reset()
		inc.mu.Lock()
		lift := inc.best.Failed
		if inc.idx > j.idx {
			lift--
		}
		inc.mu.Unlock()
		if lift > seed.Failed {
			// A lifted seed carries no witness; the lift rule above keeps
			// a search that never beats it from winning the merge.
			seed = search.Result{Failed: lift}
		}
		sub = search.BranchAndBoundWith(in, seed, bud, opts.Bound)
	}
	res := in.result(sub)
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.visited += sub.Visited
	if !res.Exact {
		inc.best.Exact = false
	}
	if res.Failed > inc.best.Failed || (res.Failed == inc.best.Failed && j.idx < inc.idx) {
		inc.best.Failed = res.Failed
		inc.best.Nodes = res.Nodes
		inc.best.Domains = domainsOfNodes(c.topo, res.Nodes)
		inc.idx = j.idx
	}
}

// domainsOfNodes returns the sorted, deduplicated domain indices touched
// by the given nodes.
func domainsOfNodes(topo *topology.Topology, nodes []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, nd := range nodes {
		di := topo.DomainOf(nd)
		if !seen[di] {
			seen[di] = true
			out = append(out, di)
		}
	}
	sort.Ints(out)
	return out
}
