// Work-stealing branch-and-bound: the parallel driver behind
// BranchAndBoundParallelWith.
//
// Pending work is an explicit, splittable frontier of Tasks — a
// selection prefix plus an untried sibling range — rather than a
// goroutine's call stack. Each worker owns a bounded LIFO deque (at
// most K entries: one continuation per ancestor of its current path)
// and explores depth-first exactly like the serial driver; whenever it
// descends into a child it publishes the node's untried siblings as a
// Task. The deque is depth-ordered, so the owner pops the deepest
// continuation (cheap replay: Removes only) while idle workers steal
// from the head — the *shallowest* range, i.e. the largest subtree —
// keeping steals rare and the Add/Remove prefix replay amortized.
//
// Two shared-atomic hot spots a per-state design would have are avoided:
//
//   - Budget: workers consume states from leased chunks (leaseChunk at
//     a time, scaled down near the limit so one worker cannot starve
//     the rest), returning the unused remainder at exit. Used() still
//     settles to exactly the states entered; the limit is never
//     overshot.
//   - Incumbent: pruning reads a worker-local snapshot refreshed on
//     lease boundaries (and by the worker's own improvements). The
//     snapshot only lags the true incumbent, so stale reads cost extra
//     exploration, never correctness.
//
// Exact runs return byte-identical (Failed, Sel) to BranchAndBoundWith.
// The serial driver keeps the seed whenever it ties the optimum
// (incumbent updates are strict) and otherwise returns the
// lexicographically smallest optimal selection (it walks selections in
// ascending lex order and records the first optimum). The scheduler
// reproduces that reduction order-independently: ties are reported, the
// reducer keeps the seed against any tie and otherwise the lex-smallest
// tied selection, and a subtree whose bound exactly ties the snapshot
// is only pruned once no leaf in it could lex-precede the incumbent.
// Visited-state *sets* may differ from the serial run (speculative
// exploration under a stale snapshot); when the greedy seed is already
// optimal — every tracked benchmark — the incumbent never moves and the
// visited set, and hence the count, is identical at any worker count.
//
// The frontier doubles as a checkpoint: Suspend parks every in-flight
// sibling range and drains the deques, returning serializable Tasks
// that StartFrom resumes — the seam a multi-process shard layer plugs
// into. A budget-exhausted run parks its frontier the same way, so a
// resumed search with a fresh budget picks up where the old one dried
// up.
package search

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of pending branch-and-bound work, serializable for
// checkpointing: the search node reached by choosing Prefix (with
// Failed objects down and LoadSum chosen static load) still owes the
// sibling branches choosing candidates Start.. next. Tasks are only
// created for nodes with at least two picks remaining; leaves and
// final-level extension scans (bestExtension) complete inline.
type Task struct {
	Prefix  []int `json:"prefix"`
	Start   int   `json:"start"`
	Failed  int   `json:"failed"`
	LoadSum int64 `json:"loadSum"`
}

// leaseChunk is how many budget states a worker claims per Lease. Large
// enough to keep the shared atomic off the per-state hot path, small
// enough that incumbent snapshots stay fresh and budgeted runs spread
// states across workers (near the limit, requests shrink to an even
// per-worker share).
const leaseChunk = 256

// deque is one worker's bounded work queue. The owner pushes and pops
// at the tail (LIFO, deepest continuation first); thieves steal from
// the head, which — because entries are continuations of the owner's
// current root-to-node path — is always the shallowest pending range.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return Task{}, false
	}
	t := d.tasks[n-1]
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) steal() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return Task{}, false
	}
	t := d.tasks[0]
	d.tasks = append(d.tasks[:0], d.tasks[1:]...)
	return t, true
}

func (d *deque) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks) == 0
}

func (d *deque) drain() []Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := d.tasks
	d.tasks = nil
	return ts
}

// ParallelSearch is a suspendable work-stealing branch-and-bound run.
// Build with NewParallelSearch, launch with Start (or StartFrom with a
// checkpointed frontier), then either Wait for the result or Suspend to
// park the remaining frontier. BranchAndBoundParallelWith wraps the
// Start/Wait pair for callers that never checkpoint.
type ParallelSearch struct {
	instances []Instance
	bud       *Budget
	bound     Bound
	workers   int
	k, m      int

	deques  []*deque
	idle    atomic.Int32
	wg      sync.WaitGroup
	started bool

	exhausted atomic.Bool // budget drained: stop, result inexact
	suspended atomic.Bool // caller asked for the frontier back
	done      atomic.Bool // frontier drained: the first worker to prove it releases the rest
	claimed   atomic.Bool // a Suspend already handed the frontier out
	finalized atomic.Bool // Wait already sealed the run

	mu         sync.Mutex
	best       Result
	bestIsSeed bool                  // best.Sel is still the caller's seed (ties never displace it)
	bestScore  atomic.Int64          // mirror of best.Failed for lock-free snapshots
	bestSel    atomic.Pointer[[]int] // nil while bestIsSeed; else a frozen copy of best.Sel

	parkedMu sync.Mutex
	parked   []Task // frontier collected at suspension or exhaustion

	finish sync.Once
	final  Result
}

// NewParallelSearch builds the per-worker instances for a work-stealing
// run. probe is a ready (Reset) instance the caller already built —
// worker 0 reuses it; newInst must return independent instances of the
// same search for the rest. Every instance is built before any worker
// spawns, so a factory failure cannot leak live workers. workers <= 0
// selects GOMAXPROCS. bud is shared (possibly with other searches); nil
// means unlimited.
func NewParallelSearch(probe Instance, newInst func() (Instance, error), seed Result, bud *Budget, workers int, bound Bound) (*ParallelSearch, error) {
	workers = Workers(workers)
	instances := make([]Instance, workers)
	instances[0] = probe
	for w := 1; w < workers; w++ {
		in, err := newInst()
		if err != nil {
			return nil, err
		}
		instances[w] = in
	}
	if bud == nil {
		bud = NewBudget(0)
	}
	ps := &ParallelSearch{
		instances:  instances,
		bud:        bud,
		bound:      bound,
		workers:    workers,
		k:          probe.K(),
		m:          probe.Len(),
		best:       Result{Failed: seed.Failed, Sel: append([]int(nil), seed.Sel...), Exact: true},
		bestIsSeed: true,
		deques:     make([]*deque, workers),
	}
	for i := range ps.deques {
		ps.deques[i] = &deque{}
	}
	ps.bestScore.Store(int64(seed.Failed))
	return ps, nil
}

// Start enters the root state (charging it to the budget exactly like
// the serial driver) and launches the workers on the resulting
// frontier.
func (ps *ParallelSearch) Start() { ps.launch(ps.enterRoot()) }

// StartFrom resumes a run from a checkpointed frontier instead of the
// root. The tasks must come from a Suspend (or Frontier) of a search
// over an identically configured instance, and the seed passed to
// NewParallelSearch should be the suspended run's Result so the
// incumbent carries over; under that contract a completed resume is
// globally exact. The root was charged by the original run, so no state
// is consumed here.
func (ps *ParallelSearch) StartFrom(tasks []Task) { ps.launch(tasks) }

func (ps *ParallelSearch) launch(tasks []Task) {
	if ps.started {
		panic("search: ParallelSearch started twice")
	}
	ps.started = true
	for i, t := range tasks {
		d := ps.deques[i%ps.workers]
		d.tasks = append(d.tasks, t) // pre-spawn: no contention yet
	}
	for w := range ps.instances {
		ps.wg.Add(1)
		go func(id int) {
			defer ps.wg.Done()
			newStealWorker(ps, id).run()
		}(w)
	}
}

// enterRoot reproduces the serial driver's root-state handling — charge
// one budget unit, then leaf/bounds/final-level checks — and returns
// the initial frontier (empty when the root resolves the search).
func (ps *ParallelSearch) enterRoot() []Task {
	in := ps.instances[0]
	if !ps.bud.Visit() {
		ps.exhausted.Store(true)
		return nil
	}
	k, m := ps.k, ps.m
	if k == 0 || k > m {
		return nil
	}
	prefix := loadPrefix(in)
	rb := residualOf(in, ps.bound)
	if prunable(rb, 0, 0, prefix[k]-prefix[0], int64(in.S()), ps.bestScore.Load(), 0, k) {
		return nil
	}
	if k == 1 {
		bestI, bestGain := bestExtension(in, gainsOf(rb), dupFlags(in), 0, m)
		if bestI >= 0 {
			ps.report(bestGain, []int{bestI})
		}
		return nil
	}
	return []Task{{Prefix: []int{}, Start: 0, Failed: 0, LoadSum: 0}}
}

// Suspend asks every worker to park: in-flight sibling ranges and
// queued continuations become frontier Tasks. It blocks until the
// workers exit and returns the frontier (empty when the search finished
// first). Wait still returns the incumbent result, marked inexact when
// work was parked.
//
// The frontier is handed out at most once: a second Suspend, or a
// Suspend after Wait has sealed the run, is a safe no-op returning nil
// — resuming the same checkpoint from two searches would explore the
// parked subtrees twice. An exhausted run's remainder stays readable
// through Frontier, which never claims it.
func (ps *ParallelSearch) Suspend() []Task {
	ps.suspended.Store(true)
	ps.wg.Wait()
	if ps.finalized.Load() || ps.claimed.Swap(true) {
		return nil
	}
	return ps.Frontier()
}

// Frontier returns the parked tasks of a finished run: the checkpoint
// of a Suspend, the unexplored remainder of a budget-exhausted run, or
// nil when the search completed. It blocks until the workers exit.
func (ps *ParallelSearch) Frontier() []Task {
	ps.wg.Wait()
	ps.parkedMu.Lock()
	defer ps.parkedMu.Unlock()
	return append([]Task(nil), ps.parked...)
}

// Wait blocks until the workers exit and returns the result. Exact is
// true only when the frontier was fully explored within budget.
func (ps *ParallelSearch) Wait() Result {
	ps.wg.Wait()
	ps.finalized.Store(true)
	ps.finish.Do(func() {
		ps.parkedMu.Lock()
		pending := len(ps.parked)
		ps.parkedMu.Unlock()
		ps.best.Visited = ps.bud.Used()
		ps.best.Exact = !ps.exhausted.Load() && pending == 0
		sort.Ints(ps.best.Sel)
		ps.final = ps.best
	})
	return ps.final
}

func (ps *ParallelSearch) stop() bool {
	return ps.exhausted.Load() || ps.suspended.Load()
}

func (ps *ParallelSearch) allEmpty() bool {
	for _, d := range ps.deques {
		if !d.empty() {
			return false
		}
	}
	return true
}

func (ps *ParallelSearch) addParked(ts ...Task) {
	ps.parkedMu.Lock()
	ps.parked = append(ps.parked, ts...)
	ps.parkedMu.Unlock()
}

// report offers a completed selection to the shared reducer. The order
// workers find selections in is scheduling-dependent, so the reducer —
// not discovery order — enforces the serial result: strict improvements
// always win; a tie never displaces the seed and otherwise wins only by
// lex order. sel must be ascending (the DFS builds it that way).
func (ps *ParallelSearch) report(failed int, sel []int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case failed > ps.best.Failed:
	case failed == ps.best.Failed && !ps.bestIsSeed && lexLess(sel, ps.best.Sel):
	default:
		return
	}
	ps.best.Failed = failed
	ps.best.Sel = append(ps.best.Sel[:0], sel...)
	ps.bestIsSeed = false
	ps.bestScore.Store(int64(failed))
	frozen := append([]int(nil), sel...)
	ps.bestSel.Store(&frozen)
}

// lexLess orders equal-length ascending selections lexicographically.
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// stealWorker is one goroutine's view of the run: its instance, the
// applied prefix mirroring the instance's counters, its budget lease
// and incumbent snapshot.
type stealWorker struct {
	ps     *ParallelSearch
	id     int
	in     Instance
	deq    *deque
	prefix []int64
	rb     ResidualBounder
	gains  []int
	dup    []bool
	s      int64
	cur    []int
	lease  int64
	snap   int64
	selBuf []int
	free   [][]int // recycled Task.Prefix buffers: one push per state entered, so allocation must not be
}

func newStealWorker(ps *ParallelSearch, id int) *stealWorker {
	in := ps.instances[id]
	rb := residualOf(in, ps.bound)
	return &stealWorker{
		ps:     ps,
		id:     id,
		in:     in,
		deq:    ps.deques[id],
		prefix: loadPrefix(in),
		rb:     rb,
		gains:  gainsOf(rb),
		dup:    dupFlags(in),
		s:      int64(in.S()),
		cur:    make([]int, 0, ps.k),
		snap:   ps.bestScore.Load(),
	}
}

func (w *stealWorker) run() {
	defer w.park()
	for {
		t, ok := w.next()
		if !ok {
			return
		}
		w.runTask(t)
	}
}

// park unwinds the instance back to clean (callers reuse probes across
// searches), settles the budget lease, and checkpoints whatever is
// still queued locally.
func (w *stealWorker) park() {
	w.adopt(nil)
	if w.lease > 0 {
		w.ps.bud.Return(w.lease)
		w.lease = 0
	}
	if ts := w.deq.drain(); len(ts) > 0 {
		w.ps.addParked(ts...)
	}
}

// next pops the worker's own deepest continuation, else steals the
// shallowest range from a victim, else spins until every worker is idle
// over empty deques — at which point no task exists anywhere and none
// can appear (only owners push, and every owner drained its deque
// before idling). The first worker to prove that sets done, releasing
// the others: exits decrement the idle gauge, so later spinners could
// never re-observe idle == workers themselves. A worker whose steal
// lands in the instant the condition is proven just finishes its
// subtree alone — it drains its own deque before ever consulting done.
func (w *stealWorker) next() (Task, bool) {
	if w.ps.stop() {
		return Task{}, false
	}
	if t, ok := w.deq.pop(); ok {
		return t, true
	}
	ps := w.ps
	ps.idle.Add(1)
	defer ps.idle.Add(-1)
	for spins := 0; ; spins++ {
		if ps.stop() || ps.done.Load() {
			return Task{}, false
		}
		for off := 1; off < ps.workers; off++ {
			if t, ok := ps.deques[(w.id+off)%ps.workers].steal(); ok {
				return t, true
			}
		}
		if ps.idle.Load() == int32(ps.workers) && ps.allEmpty() {
			ps.done.Store(true)
			return Task{}, false
		}
		if spins%256 == 255 {
			time.Sleep(50 * time.Microsecond) // oversubscribed tails: stop burning the core
		}
		runtime.Gosched()
	}
}

// adopt replays the instance onto the given prefix: Remove back to the
// common ancestor, Add the rest. Popping an own continuation removes a
// suffix only; a stolen task pays the full replay — amortized, since
// steals take the shallowest (largest) pending subtrees.
func (w *stealWorker) adopt(prefix []int) {
	lcp := 0
	for lcp < len(w.cur) && lcp < len(prefix) && w.cur[lcp] == prefix[lcp] {
		lcp++
	}
	for j := len(w.cur) - 1; j >= lcp; j-- {
		w.in.Remove(w.cur[j])
	}
	w.cur = w.cur[:lcp]
	for _, c := range prefix[lcp:] {
		w.in.Add(c)
		w.cur = append(w.cur, c)
	}
}

// prefixCopy snapshots w.cur into a recycled buffer — a push happens on
// every descent (one per interior state), so per-push allocation would
// dominate the hot path.
func (w *stealWorker) prefixCopy() []int {
	var buf []int
	if n := len(w.free); n > 0 {
		buf = w.free[n-1][:0]
		w.free = w.free[:n-1]
	} else {
		buf = make([]int, 0, w.ps.k)
	}
	return append(buf, w.cur...)
}

// recycle returns an adopted task's prefix buffer to the freelist. A
// stolen buffer migrates to the thief's freelist; parked buffers escape
// the cycle (they outlive the run as the checkpoint).
func (w *stealWorker) recycle(buf []int) {
	if cap(buf) > 0 && len(w.free) < 64 {
		w.free = append(w.free, buf)
	}
}

// runTask explores the task's sibling range depth-first, mirroring the
// serial driver state for state: each child entered charges one leased
// budget unit, then runs the same leaf/prune/final-level logic; a child
// with two or more picks remaining becomes the new node after the
// untried siblings are published for thieves.
func (w *stealWorker) runTask(t Task) {
	w.adopt(t.Prefix)
	w.recycle(t.Prefix)
	failed, loadSum, start := t.Failed, t.LoadSum, t.Start
	for {
		rem := w.ps.k - len(w.cur)
		if rem <= 0 {
			return
		}
		m := w.ps.m
		if rem == 1 { // defensive: tasks are built with rem >= 2
			w.scanLast(failed, start)
			return
		}
		// The node's own loop start (its entry point in the serial DFS):
		// the dup collapse is relative to it, not to a resumed Start.
		ns := 0
		if len(w.cur) > 0 {
			ns = w.cur[len(w.cur)-1] + 1
		}
		descended := false
		for i := start; i <= m-rem; i++ {
			if w.dup != nil && i > ns && w.dup[i] {
				continue
			}
			if w.ps.stop() {
				w.parkRange(i, failed, loadSum)
				return
			}
			if !w.charge() {
				w.parkRange(i, failed, loadSum)
				return
			}
			newly := w.in.Add(i)
			cf := failed + newly
			cl := loadSum + w.in.Load(i)
			crem := rem - 1
			cstart := i + 1
			window := w.prefix[cstart+crem] - w.prefix[cstart]
			if w.pruneChild(cf, cl, window, cstart, crem, i) {
				w.in.Remove(i)
				continue
			}
			if crem == 1 {
				w.cur = append(w.cur, i)
				w.scanLast(cf, cstart)
				w.cur = w.cur[:len(w.cur)-1]
				w.in.Remove(i)
				continue
			}
			if cstart <= m-rem {
				w.deq.push(Task{Prefix: w.prefixCopy(), Start: cstart, Failed: failed, LoadSum: loadSum})
			}
			w.cur = append(w.cur, i)
			failed, loadSum, start = cf, cl, cstart
			descended = true
			break
		}
		if !descended {
			return
		}
	}
}

// parkRange checkpoints the untried remainder [i..] of the current
// node's sibling range when the run stops mid-task.
func (w *stealWorker) parkRange(i, failed int, loadSum int64) {
	w.ps.addParked(Task{Prefix: append([]int(nil), w.cur...), Start: i, Failed: failed, LoadSum: loadSum})
}

// charge consumes one state from the worker's budget lease, claiming a
// fresh chunk — and refreshing the incumbent snapshot — on lease
// boundaries. Returns false when the shared budget is dry.
func (w *stealWorker) charge() bool {
	if w.lease == 0 {
		n := int64(leaseChunk)
		if rem := w.ps.bud.Remaining(); rem < n*int64(w.ps.workers) {
			// Near the limit: claim an even share so the last states are
			// spread across workers instead of hoarded by the first asker.
			n = rem/int64(w.ps.workers) + 1
		}
		g := w.ps.bud.Lease(n)
		if g == 0 {
			w.ps.exhausted.Store(true)
			return false
		}
		w.lease = g
		if s := w.ps.bestScore.Load(); s > w.snap {
			w.snap = s
		}
	}
	w.lease--
	return true
}

// pruneChild decides whether the just-entered child (cur + next, cf
// failed, cl chosen load) can be cut. The snapshot bound is admissible,
// so anything it prunes outright is safe; the subtle case is a bound
// that exactly ties the snapshot — such a subtree cannot improve the
// damage but may hold an equal-damage selection that lex-precedes the
// incumbent, which the serial reduction would have returned. Those
// subtrees survive unless the incumbent is still the seed (ties never
// displace it) or no leaf below can lex-precede the incumbent.
func (w *stealWorker) pruneChild(cf int, cl, window int64, cstart, crem, next int) bool {
	if !prunable(w.rb, cf, cl, window, w.s, w.snap, cstart, crem) {
		return false
	}
	if prunable(w.rb, cf, cl, window, w.s, w.snap-1, cstart, crem) {
		return true // strictly below the snapshot: no tie possible
	}
	sel := w.ps.bestSel.Load()
	if sel == nil {
		return true // incumbent is the seed; ties keep it
	}
	return !prefixMayPrecede(w.cur, next, *sel)
}

// prefixMayPrecede reports whether some completion of (cur..., next)
// could lex-precede sel. Conservative: equality so far counts as
// possible.
func prefixMayPrecede(cur []int, next int, sel []int) bool {
	for j, v := range cur {
		if j >= len(sel) {
			return false
		}
		if v != sel[j] {
			return v < sel[j]
		}
	}
	if len(cur) >= len(sel) {
		return false
	}
	if next != sel[len(cur)] {
		return next < sel[len(cur)]
	}
	return true
}

// scanLast is the final-level extension scan (bestExtension) over
// candidates cstart..m-1 for the node currently applied to the
// instance (failed objects down). Unlike the serial driver it also
// reports ties — the reducer needs them for the lex tie-break — but the
// scan itself is the serial one: first of equal maximizers.
func (w *stealWorker) scanLast(failed, cstart int) {
	bestI, bestGain := bestExtension(w.in, w.gains, w.dup, cstart, w.ps.m)
	if bestI < 0 {
		return
	}
	total := failed + bestGain
	if int64(total) < w.snap {
		return
	}
	w.selBuf = append(append(w.selBuf[:0], w.cur...), bestI)
	w.ps.report(total, w.selBuf)
	if int64(total) > w.snap {
		w.snap = int64(total)
	}
}
