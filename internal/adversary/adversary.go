// Package adversary computes (or bounds) the worst-case failure against
// a placement: the attack that fails the most objects, where an object
// fails once s of its replicas lie on failed nodes (paper Definition 1:
// Avail(π) is b minus this maximum).
//
// One call, Attack, answers every attack model; the Target's shape picks
// the model:
//
//   - Topo == nil: the paper's adversary, any K nodes.
//   - Topo set, K == 0: D whole domains of one level of the topology
//     (the hierarchical correlated-failure setting of Mills,
//     Chandrasekaran & Mittal, arXiv:1701.01539).
//   - Topo set, K and D both set: K nodes confined to at most D domains
//     of that level — the paper's node budget with a correlation limit.
//
// SearchOpts.Engine picks the search. The problem generalizes maximum
// coverage and is NP-hard:
//
//   - BranchAndBound (the zero value): branch-and-bound over candidates
//     ordered by load, seeded with the greedy incumbent, pruned with the
//     residual-load bound (or, under SearchOpts{Bound:
//     search.BoundStatic}, the static replica-counting bound failed(K)
//     <= ⌊(Σ_{nd∈K} load(nd)) / s⌋). Exact when it completes within its
//     state budget; otherwise it degrades gracefully and reports Exact =
//     false.
//   - Exhaustive: enumerate every attack set. Reference oracle for tests
//     and tiny instances.
//   - Greedy: greedy marginal-gain selection followed by swap-based local
//     search. Fast; yields a lower bound on the damage (upper bound on
//     availability).
//
// NewSession opens the incremental face of the same search for node and
// whole-domain targets (see Session).
//
// Every attack is a thin adapter over the one generic search core in
// internal/search: a search.HitInstance — one flat CSR hit layout for
// node-level (C = 1), whole-domain (aggregated C) and constrained
// searches alike — plus the candidate index → identity mapping. See that
// package (and this package's README) for the shared drivers, the
// residual-load pruning bound and the budget semantics.
package adversary

import (
	"fmt"
	"sort"

	"repro/internal/placement"
	"repro/internal/search"
	"repro/internal/topology"
)

// Result reports the outcome of a worst-case search. Under
// SearchOpts.ObjWeights, Failed is the total WEIGHT of the failed
// objects (lost weight, not count); Avail then reads b as the total
// weight — pair weighted searches with placement.SumWeights.
type Result struct {
	Failed int // objects (or weight, under ObjWeights) failed by the best attack found
	// Domains are the attack's domains at the target level, sorted: the
	// failed domains of a whole-domain attack, the domains a constrained
	// attack's nodes touch. nil for node attacks.
	Domains []int
	Nodes   []int // the failed nodes, sorted
	Exact   bool  // true if Failed is provably the maximum
	Visited int64 // search states visited (diagnostics/ablation)
}

// Avail returns b - Failed for the placement the result was computed on.
func (r Result) Avail(b int) int { return b - r.Failed }

// DomainResult is Result under its former whole-domain name, kept for
// the perfbench module: its recorded workloads are versioned with their
// baselines and still name it.
type DomainResult = Result

// Engine selects the search Attack runs.
type Engine int

const (
	// BranchAndBound is greedy-seeded branch-and-bound, exact within its
	// budget.
	BranchAndBound Engine = iota
	// Exhaustive enumerates every attack set; it ignores Budget and
	// Bound.
	Exhaustive
	// Greedy is marginal-gain selection plus single-swap local search, a
	// lower bound on the damage; it ignores Budget and Bound.
	Greedy
)

// Target names what the adversary fails. Its shape picks the attack
// model: Topo == nil is a node attack of K; Topo with K == 0 is a
// whole-domain attack of D; Topo with both K and D is the constrained
// attack (K nodes inside at most D domains).
type Target struct {
	// S is the fatality threshold: an object fails once S of its
	// replicas are on failed nodes (1 <= S <= r).
	S int
	// K is the number of failed nodes (1 <= K < n); 0 with Topo set
	// selects the whole-domain attack.
	K int
	// D is the number of failed whole domains, or, with K set, the most
	// domains the K failed nodes may span (1 <= D <= the domain count
	// at Level). It must be 0 without Topo.
	D int
	// Topo is the failure-domain topology; nil selects the node attack.
	Topo *topology.Topology
	// Level is the topology level whose domains D counts, numbered like
	// the replicaplace CLI's -level flag: 0 is the top (coarsest) level,
	// topology.Leaf (-1) the leaf racks. Ignored without Topo.
	Level int
}

// SearchOpts tunes how an attack searches; the zero value — greedy-seeded
// branch-and-bound, unlimited budget, serial, residual-load pruning — is
// the exact default.
type SearchOpts struct {
	// Engine selects the search (BranchAndBound, the zero value;
	// Exhaustive; Greedy). Sessions search by branch-and-bound only.
	Engine Engine
	// Budget caps the branch-and-bound states visited (<= 0: unlimited,
	// result exact). One shared pool per logical search: across workers
	// and, for the constrained attack, across domain subsets.
	Budget int64
	// Workers fans the search out over goroutines: 0 or 1 serial, < 0
	// GOMAXPROCS. Branch-and-bound searches in parallel; the constrained
	// attack shards its domain subsets for every engine. Exact searches
	// return identical damage and witness at any worker count; budgeted
	// parallel searches may report different (still valid) lower bounds
	// run to run.
	Workers int
	// Bound selects the pruning discipline — search.BoundResidual (the
	// default) or search.BoundStatic (the ablation baseline). Both
	// return identical results; residual visits no more states.
	Bound search.Bound
	// MemoCap bounds the damage memo of incremental Sessions (one-shot
	// attacks keep no memo): total memoized results across the memo's
	// shards, evicted FIFO past the cap. 0 picks a default large enough
	// that bounded workloads never evict (1<<16); < 0 is unlimited.
	// Parallel probing (Session.ProbeMoves) is visit-count deterministic
	// only while the cap is unreached — see the session docs — so leave
	// it at the default unless memory is the concern.
	MemoCap int
	// ObjWeights switches every engine to weighted damage: object obj
	// is worth ObjWeights[obj] (>= 0) and the adversary maximizes the
	// total weight of the failed objects instead of their count —
	// Result.Failed is then lost weight. The candidate ordering, the
	// pruning bounds and the residual ledger all run in weight units
	// (see internal/search), so an all-ones vector reproduces the
	// unweighted search byte for byte: same damage, same witness, same
	// visited-state count. nil means unit weights. Derive per-object
	// weights from a topology's node weights with
	// placement.ObjectWeights.
	ObjWeights []int64
}

// resolveMemoCap maps the SearchOpts convention onto a concrete cap
// for newSessionMemo (0 there = unlimited).
func (o SearchOpts) resolveMemoCap() int {
	if o.MemoCap < 0 {
		return 0
	}
	if o.MemoCap == 0 {
		return defaultMemoCap
	}
	return o.MemoCap
}

// resolveWorkers maps the SearchOpts convention onto a concrete count.
func (o SearchOpts) resolveWorkers() int {
	if o.Workers == 0 {
		return 1
	}
	return search.Workers(o.Workers)
}

// check validates t against the placement and the object weights — the
// one parameter check every attack and session runs — and returns the
// flat view of the attack level (nil for a node attack).
func (t Target) check(pl *placement.Placement, w []int64) (*topology.Topology, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	var flat *topology.Topology
	if t.Topo != nil {
		var err error
		if flat, err = collapseTo(pl, t.Topo, t.Level); err != nil {
			return nil, err
		}
	} else if t.D != 0 {
		return nil, fmt.Errorf("adversary: d = %d needs a topology", t.D)
	}
	if t.S < 1 || t.S > pl.R {
		return nil, fmt.Errorf("adversary: s = %d must satisfy 1 <= s <= r = %d", t.S, pl.R)
	}
	if (flat == nil || t.K != 0) && (t.K < 1 || t.K >= pl.N) {
		return nil, fmt.Errorf("adversary: k = %d must satisfy 1 <= k < n = %d", t.K, pl.N)
	}
	// Unlike the node-level k < n, d = NumDomains is allowed: "every
	// domain fails" is a well-defined (if grim) query, and the placement
	// side (WorstDomainDamage, SpreadAcrossDomains) accepts it too.
	if flat != nil && (t.D < 1 || t.D > flat.NumDomains()) {
		return nil, fmt.Errorf("adversary: d = %d must satisfy 1 <= d <= domains = %d", t.D, flat.NumDomains())
	}
	return flat, checkObjWeights(w, pl.B())
}

// collapseTo validates the topology and projects it to the requested
// attack level: the flat depth-1 view every instance is built from. The
// leaf level of any depth is already flat for the leaf-only accessors,
// so it avoids the copy.
func collapseTo(pl *placement.Placement, topo *topology.Topology, level int) (*topology.Topology, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.N != pl.N {
		return nil, fmt.Errorf("adversary: topology covers %d nodes, placement has %d", topo.N, pl.N)
	}
	l, err := topo.ResolveLevel(level)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	if l == topo.Levels()-1 {
		return topo, nil
	}
	return topo.Collapse(l)
}

// checkObjWeights validates an optional per-object weight vector
// against a placement's object count.
func checkObjWeights(w []int64, b int) error {
	if w == nil {
		return nil
	}
	if len(w) != b {
		return fmt.Errorf("adversary: %d object weights for %d objects", len(w), b)
	}
	for obj, v := range w {
		if v < 0 {
			return fmt.Errorf("adversary: object %d weight %d negative", obj, v)
		}
	}
	return nil
}

// Attack returns the most damaging failure of target t against pl that
// the engine in opts finds. With the default engine and Budget <= 0 the
// result is exact; a positive budget stops the search after that many
// states and reports whether it completed. (One state = one partial
// attack set considered; greedy seeding is budget-free.)
func Attack(pl *placement.Placement, t Target, opts SearchOpts) (Result, error) {
	if opts.Engine < BranchAndBound || opts.Engine > Greedy {
		return Result{}, fmt.Errorf("adversary: unknown engine %d", opts.Engine)
	}
	flat, err := t.check(pl, opts.ObjWeights)
	if err != nil {
		return Result{}, err
	}
	if flat != nil && t.K != 0 {
		return newConstrained(pl, flat, t, opts.ObjWeights).sweep(opts), nil
	}
	in := newInstance(pl, flat, t, opts.ObjWeights)
	var res search.Result
	switch opts.Engine {
	case Exhaustive:
		res = search.Exhaustive(in)
	case Greedy:
		res = search.Greedy(in)
	default:
		seed := search.Greedy(in)
		in.Reset()
		res = branchAndBound(in.HitInstance, seed, search.NewBudget(opts.Budget), opts)
	}
	return in.result(res), nil
}

// WorstCase is the exact-by-default node attack, Attack with Target{S:
// s, K: k} and the given budget, kept for the perfbench module: its
// recorded workloads are versioned with their baselines and call it.
func WorstCase(pl *placement.Placement, s, k int, budget int64) (Result, error) {
	return Attack(pl, Target{S: s, K: k}, SearchOpts{Budget: budget})
}

// DomainWorstCase is the whole-domain attack on d leaf domains, Attack
// with Target{S: s, D: d, Topo: topo, Level: topology.Leaf} and the
// given budget, kept for the perfbench module: its recorded workloads
// are versioned with their baselines and call it.
func DomainWorstCase(pl *placement.Placement, topo *topology.Topology, s, d int, budget int64) (DomainResult, error) {
	return Attack(pl, Target{S: s, D: d, Topo: topo, Level: topology.Leaf}, SearchOpts{Budget: budget})
}

// branchAndBound runs branch-and-bound on in from seed, serially or
// fanned out over opts' workers (clones share in's immutable CSR, and
// the work-stealing driver unwinds in before returning, so it stays
// clean for the caller).
func branchAndBound(in *search.HitInstance, seed search.Result, bud *search.Budget, opts SearchOpts) search.Result {
	if workers := opts.resolveWorkers(); workers > 1 {
		// The driver errs only when the factory does, and Clone cannot.
		res, _ := search.BranchAndBoundParallelWith(in, func() (search.Instance, error) {
			return in.Clone(), nil
		}, seed, bud, workers, opts.Bound)
		return res
	}
	return search.BranchAndBoundWith(in, seed, bud, opts.Bound)
}

// instance adapts a placement to search.HitInstance with one candidate
// per node (topo nil; every hit has C = 1) or per attack-level domain
// (the aggregated hits of placement.DomainHits), keeping the candidate
// index → node or domain id mapping.
type instance struct {
	*search.HitInstance
	topo  *topology.Topology // flat attack-level view; nil = node candidates
	cands []int              // loaded ids by canonical order, then unloaded padding
}

// newInstance builds the search instance of a validated node (flat nil)
// or whole-domain target.
func newInstance(pl *placement.Placement, flat *topology.Topology, t Target, w []int64) *instance {
	k, byID := t.K, [][]search.Hit(nil)
	if flat == nil {
		byID = nodeHits(pl)
	} else {
		k = t.D
		byID, _ = placement.DomainHits(pl, flat)
	}
	wloads := weightedLoads(byID, w)
	in := &instance{HitInstance: search.NewHitInstance(t.S, pl.B()), topo: flat}
	for id, hl := range byID {
		if len(hl) > 0 {
			in.cands = append(in.cands, id)
		}
	}
	byLoad(in.cands, wloads)
	// If fewer than k units carry load, pad with empty ones (they do no
	// harm, but the attack set must have k members; k < n and d <=
	// domains guarantee enough exist).
	for id := 0; id < len(byID) && len(in.cands) < k; id++ {
		if len(byID[id]) == 0 {
			in.cands = append(in.cands, id)
		}
	}
	hitLists := make([][]search.Hit, len(in.cands))
	loads := make([]int64, len(in.cands))
	for i, id := range in.cands {
		hitLists[i] = byID[id]
		loads[i] = wloads[id]
	}
	in.Reinit(k, hitLists, loads)
	in.SetWeights(w)
	return in
}

// result translates a core result from candidate-index space to ids.
func (in *instance) result(res search.Result) Result {
	out := Result{Failed: res.Failed, Exact: res.Exact, Visited: res.Visited}
	out.Domains, out.Nodes = witness(in.topo, in.cands, res.Sel)
	return out
}

// witness maps a selection of candidate positions through idOf to the
// attack's sorted ids: the failed nodes, or with a topology the failed
// domains and their node union.
func witness(topo *topology.Topology, idOf, sel []int) (domains, nodes []int) {
	ids := make([]int, len(sel))
	for i, c := range sel {
		ids[i] = idOf[c]
	}
	sort.Ints(ids)
	if topo == nil {
		return nil, ids
	}
	return ids, topo.FailedSet(ids).Members(nil)
}

// byLoad sorts ids into the canonical candidate order every instance
// and session shares: weighted load descending, ties by ascending id (so
// node- and domain-level searches are isomorphic on singleton-domain
// topologies).
func byLoad(ids []int, wloads []int64) {
	sort.Slice(ids, func(a, b int) bool {
		if wloads[ids[a]] != wloads[ids[b]] {
			return wloads[ids[a]] > wloads[ids[b]]
		}
		return ids[a] < ids[b]
	})
}

// nodeHits builds the per-node hit lists (C = 1 per hosted replica,
// objects ascending) every node-level adapter shares.
func nodeHits(pl *placement.Placement) [][]search.Hit {
	perNode := make([][]search.Hit, pl.N)
	var buf []int
	for obj := 0; obj < pl.B(); obj++ {
		buf = pl.Objects[obj].Members(buf[:0])
		for _, nd := range buf {
			perNode[nd] = append(perNode[nd], search.Hit{Obj: int32(obj), C: 1})
		}
	}
	return perNode
}

// weightedLoads maps per-candidate hit lists to their weighted loads
// Σ C·w[obj] — the load contract of a SetWeights instance. With w nil
// it returns the plain replica counts.
func weightedLoads(hitLists [][]search.Hit, w []int64) []int64 {
	loads := make([]int64, len(hitLists))
	for i, hl := range hitLists {
		var sum int64
		for _, h := range hl {
			c := int64(h.C)
			if w != nil {
				c *= w[h.Obj]
			}
			sum += c
		}
		loads[i] = sum
	}
	return loads
}
