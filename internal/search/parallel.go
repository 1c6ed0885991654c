package search

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// BranchAndBoundParallel is BranchAndBound fanned out over worker
// goroutines with the default BoundResidual pruning discipline; see
// BranchAndBoundParallelWith.
func BranchAndBoundParallel(probe Instance, newInst func() (Instance, error), seed Result, bud *Budget, workers int) (Result, error) {
	return BranchAndBoundParallelWith(probe, newInst, seed, bud, workers, BoundResidual)
}

// BranchAndBoundParallelWith is BranchAndBoundWith fanned out over a
// work-stealing scheduler (see steal.go): pending work is an explicit
// frontier of {prefix, sibling-range} tasks, each worker explores
// depth-first on its own instance and publishes its shallowest untried
// ranges for idle workers to steal, budget states are consumed from
// leased chunks, and incumbent reads are a local snapshot refreshed on
// lease boundaries. workers <= 0 selects GOMAXPROCS; workers == 1
// degrades to the serial driver on the probe.
//
// probe is a ready (Reset) instance the caller already built — worker 0
// reuses it, so seeding greedy on it first costs no extra construction;
// it is returned clean (the applied prefix fully unwound), so callers
// may reuse it across searches. newInst must return independent
// instances of the same search (same candidate order, loads and damage
// accounting) for the remaining workers; each owns one. bud is shared
// across all workers — the same semantics as the serial driver,
// consumed collectively and accounted exactly.
//
// Exact runs return byte-identical (Failed, Sel) to BranchAndBoundWith.
// With a budget, the set of states visited differs between runs, so
// budgeted results may vary (each is still a valid attack and lower
// bound on the damage). Callers that need to checkpoint or resume the
// search use ParallelSearch directly.
func BranchAndBoundParallelWith(probe Instance, newInst func() (Instance, error), seed Result, bud *Budget, workers int, bound Bound) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //lint:allow nodeterm worker-count default only; results are proven worker-count invariant
	}
	if workers == 1 {
		return BranchAndBoundWith(probe, seed, bud, bound), nil
	}
	ps, err := NewParallelSearch(probe, newInst, seed, bud, workers, bound)
	if err != nil {
		return Result{}, err
	}
	ps.Start()
	return ps.Wait(), nil
}

// BranchAndBoundShardedWith is the previous parallel driver, kept one
// release as the opt-out of the work-stealing scheduler and as the
// baseline that BenchmarkStealSkew quantifies against: workers drain a
// shared counter of top-level branches (the first failed candidate) and
// then grind each subtree alone, sharing the budget and incumbent
// through per-state atomics. With strong pruning most top-level
// branches die instantly and the survivors are grossly unequal, so
// workers starve on skewed instances — the starvation the work-stealing
// driver removes.
//
// Deprecated: use BranchAndBoundParallelWith.
func BranchAndBoundShardedWith(probe Instance, newInst func() (Instance, error), seed Result, bud *Budget, workers int, bound Bound) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //lint:allow nodeterm worker-count default only; results are proven worker-count invariant
	}
	if workers == 1 {
		return BranchAndBoundWith(probe, seed, bud, bound), nil
	}
	m, k := probe.Len(), probe.K()
	// Build every worker's instance before spawning any goroutine: a
	// factory failure mid-spawn would otherwise leak live workers that
	// keep searching and draining the caller's budget.
	instances := make([]Instance, workers)
	instances[0] = probe
	for w := 1; w < workers; w++ {
		in, err := newInst()
		if err != nil {
			return Result{}, err
		}
		instances[w] = in
	}

	var (
		mu        sync.Mutex
		best      = Result{Failed: seed.Failed, Sel: append([]int(nil), seed.Sel...), Exact: true}
		bestScore atomic.Int64 // mirror of best.Failed for lock-free pruning
		exhausted atomic.Bool
	)
	bestScore.Store(int64(seed.Failed))
	report := func(failed int, sel []int) {
		mu.Lock()
		defer mu.Unlock()
		if failed > best.Failed {
			best.Failed = failed
			best.Sel = append(best.Sel[:0], sel...)
			bestScore.Store(int64(failed))
		}
	}

	// Top-level branches: first chosen candidate index.
	var nextStart atomic.Int64
	var wg sync.WaitGroup
	for _, in := range instances {
		wg.Add(1)
		go func(in Instance) {
			defer wg.Done()
			s := in.S()
			prefix := loadPrefix(in)
			rb := residualOf(in, bound)
			gains := gainsOf(rb)
			dup := dupFlags(in)
			cur := make([]int, 0, k)
			var dfs func(start, failed int, loadSum int64)
			dfs = func(start, failed int, loadSum int64) {
				if exhausted.Load() {
					return
				}
				if !bud.Visit() {
					exhausted.Store(true)
					return
				}
				rem := k - len(cur)
				if rem == 0 {
					if int64(failed) > bestScore.Load() {
						report(failed, cur)
					}
					return
				}
				if start+rem > m {
					return
				}
				window := prefix[start+rem] - prefix[start]
				if prunable(rb, failed, loadSum, window, int64(s), bestScore.Load(), start, rem) {
					return
				}
				if rem == 1 {
					bestI, bestGain := bestExtension(in, gains, dup, start, m)
					if bestI >= 0 && int64(failed+bestGain) > bestScore.Load() {
						cur = append(cur, bestI)
						report(failed+bestGain, cur)
						cur = cur[:len(cur)-1]
					}
					return
				}
				for i := start; i <= m-rem; i++ {
					if dup != nil && i > start && dup[i] {
						continue
					}
					newly := in.Add(i)
					cur = append(cur, i)
					dfs(i+1, failed+newly, loadSum+in.Load(i))
					cur = cur[:len(cur)-1]
					in.Remove(i)
					if exhausted.Load() {
						return
					}
				}
			}
			for {
				first := int(nextStart.Add(1)) - 1
				if first > m-k || exhausted.Load() {
					return
				}
				// Top-level duplicate collapse: the worker that drew
				// first-1 covers every selection this branch could add.
				if dup != nil && first > 0 && dup[first] {
					continue
				}
				newly := in.Add(first)
				cur = append(cur[:0], first)
				dfs(first+1, newly, in.Load(first))
				cur = cur[:0]
				in.Remove(first)
			}
		}(in)
	}
	wg.Wait()

	best.Visited = bud.Used()
	best.Exact = !exhausted.Load()
	sort.Ints(best.Sel)
	return best, nil
}
