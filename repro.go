// Package repro is a Go implementation of the replica placement strategies
// from Li, Gao & Reiter, "Replica Placement for Availability in the Worst
// Case" (ICDCS 2015, DOI 10.1109/ICDCS.2015.67).
//
// The problem: place b objects, each replicated on r of n nodes, so that
// as many objects as possible survive when an adversary — who knows the
// placement — fails the worst possible k nodes. An object fails once s of
// its replicas are on failed nodes.
//
// The library provides:
//
//   - Simple(x, λ) placements (combinatorial t-packings: no x+1 nodes
//     host more than λ common objects), with the Lemma 2 availability
//     lower bound and the Theorem 1 c-competitiveness constants;
//   - Combo placements combining Simple(x, λx) for x = 0..s-1, with the
//     paper's dynamic program for choosing ⟨λx⟩ (PlanCombo);
//   - concrete constructions backed by real Steiner systems (triple
//     systems, quadruple systems, affine/projective/spherical geometries)
//     built from scratch in internal/design;
//   - the Random load-balanced baseline and its worst-case analysis
//     (Vuln, prAvail — Theorem 2, Definition 6, Lemma 4);
//   - one worst-case adversary, Attack, for evaluating Avail(π) on
//     concrete placements: any k nodes (the paper's), d whole failure
//     domains of any level of a topology, or k nodes confined to at most
//     d domains — the Target's shape picks the model;
//   - failure-domain topologies of any depth (flat racks, zone→rack,
//     region→zone→rack and deeper, as level-indexed trees) and a
//     hierarchical domain-aware spreading post-pass
//     (SpreadAcrossDomains) that maps abstract node ids onto physical
//     nodes — optionally under per-rack replica caps — without ever
//     hurting availability under the domain adversary at any level;
//   - a cluster simulation layer (NewCluster) with object lifecycle,
//     failure injection, and adaptive capacity growth.
//
// Quick start:
//
//	spec, bound, _ := repro.PlanCombo(71, 3, 2, 4, 600)   // n, r, s, k, b
//	pl, _ := repro.Materialize(71, 3, spec, 600)
//	avail, _, _ := repro.Avail(pl, 2, 4, 0)               // exact worst case
//	fmt.Println(bound <= int64(avail))                     // always true
//
//	topo, _ := repro.UniformTopology(71, 8)               // 8 racks
//	rack, _ := repro.Attack(pl, repro.Target{S: 2, D: 1, Topo: topo}, repro.AttackOptions{})
//	fmt.Println(rack.Avail(600), rack.Domains)            // worst single-rack loss
//
// The programs under examples/ drive each part end to end; the
// internal packages' READMEs hold the design notes behind each layer.
package repro

import (
	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

// Core model types, re-exported from the internal packages.
type (
	// Params are the system model parameters (n, b, r, s, k) in the
	// paper's notation.
	Params = placement.Params
	// Placement maps objects to replica sets.
	Placement = placement.Placement
	// ComboSpec is a configured Combo(⟨λx⟩) strategy.
	ComboSpec = placement.ComboSpec
	// Target names what an Attack fails; its shape picks the attack
	// model. Topo == nil fails any K nodes; Topo with K == 0 fails D
	// whole domains; Topo with both K and D fails K nodes inside at most
	// D domains. Level is numbered like the replicaplace CLI's -level
	// flag: 0 is the top (coarsest) level, LeafLevel the racks.
	Target = adversary.Target
	// AttackOptions tune an Attack: the engine (exact branch-and-bound
	// by default, or exhaustive or greedy), the state budget, the worker
	// fan-out, the pruning bound and per-object weights.
	AttackOptions = adversary.SearchOpts
	// AttackResult reports a worst-case failure search outcome: the
	// damage, the failed nodes (and domains), and whether it is exact.
	AttackResult = adversary.Result
	// Topology maps nodes into a level-indexed tree of named failure
	// domains (regions, zones, racks — any depth >= 1).
	Topology = topology.Topology
	// SpreadOptions tunes SpreadAcrossDomainsWith (per-domain replica
	// caps at any level, weighted-damage scoring).
	SpreadOptions = placement.SpreadOpts
	// SpreadStats summarizes replica spreading over failure domains.
	SpreadStats = placement.SpreadStats
	// Cluster is a simulated storage cluster using these placements.
	Cluster = cluster.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = cluster.Config
	// ClusterStrategy selects a cluster's placement policy.
	ClusterStrategy = cluster.Strategy
)

// Cluster strategies.
const (
	StrategyCombo  = cluster.StrategyCombo
	StrategyRandom = cluster.StrategyRandom
)

// LeafLevel selects the leaf (finest) level of a topology as a
// Target's Level.
const LeafLevel = topology.Leaf

// PlanCombo chooses the availability-optimal Combo configuration ⟨λx⟩ for
// placing b objects on n nodes (r replicas, fatality threshold s) against
// k worst-case node failures, using the design catalog's best known
// Steiner orders. It returns the spec together with its availability
// lower bound lbAvail_co (Lemma 3): at least that many objects survive
// ANY k node failures under the materialized placement.
func PlanCombo(n, r, s, k, b int) (ComboSpec, int64, error) {
	units, err := placement.DefaultUnits(n, r, s, false)
	if err != nil {
		return ComboSpec{}, 0, err
	}
	return placement.OptimizeCombo(b, k, s, units)
}

// PlanComboConstructible is PlanCombo restricted to Steiner systems this
// library can actually build, so that the resulting spec can be
// materialized by Materialize without greedy fallbacks.
func PlanComboConstructible(n, r, s, k, b int) (ComboSpec, int64, error) {
	units, err := placement.DefaultUnits(n, r, s, true)
	if err != nil {
		return ComboSpec{}, 0, err
	}
	return placement.OptimizeCombo(b, k, s, units)
}

// Materialize builds the concrete placement for a planned Combo spec.
func Materialize(n, r int, spec ComboSpec, b int) (*Placement, error) {
	return placement.BuildCombo(n, r, spec, b, placement.SimpleOptions{})
}

// RandomPlacement builds the load-balanced Random baseline placement
// (Definition 4) for the given parameters.
func RandomPlacement(p Params, seed int64) (*Placement, error) {
	return randplace.Generate(p, seed)
}

// Avail computes Avail(π) = b minus the worst-case number of objects an
// adversary can fail with k node failures (Definition 1), via
// branch-and-bound. budget <= 0 searches exhaustively (exact); a positive
// budget bounds the search and the result reports whether it stayed
// exact.
func Avail(pl *Placement, s, k int, budget int64) (int, AttackResult, error) {
	res, err := adversary.Attack(pl, Target{S: s, K: k}, AttackOptions{Budget: budget})
	if err != nil {
		return 0, AttackResult{}, err
	}
	return res.Avail(pl.B()), res, nil
}

// Attack returns the most damaging failure of target t against pl —
// Definition 1's adversary, generalized to failure domains. The zero
// AttackOptions run an exact branch-and-bound; a positive Budget bounds
// it (the result reports whether it stayed exact), Workers fans it out
// with identical results, and ObjWeights scores lost weight instead of
// lost objects.
func Attack(pl *Placement, t Target, opts AttackOptions) (AttackResult, error) {
	return adversary.Attack(pl, t, opts)
}

// PrAvail returns the number of objects probably available under Random
// placement facing a worst-case adversary (Definition 6, evaluated with
// the Theorem 2 limit).
func PrAvail(p Params) (int, error) {
	return randplace.PrAvail(p)
}

// UniformTopology spreads n nodes evenly over the given number of racks.
func UniformTopology(n, racks int) (*Topology, error) {
	return topology.Uniform(n, racks)
}

// TreeTopology builds a uniform failure hierarchy of any depth:
// branching is the fan-out per level from the top down, so
// TreeTopology(n, 2, 3, 4) is 2 regions × 3 zones × 4 racks. Use
// Topology.Collapse(level) for the flat view of any level, and a
// Target's Level to attack one.
func TreeTopology(n int, branching ...int) (*Topology, error) {
	return topology.UniformTree(n, branching...)
}

// ParseTopology parses the textual topology spec format for n nodes:
// ';'-separated leaf domains, each naming its ancestor chain
// ("rack@zone@region:nodes"). Topology.Spec renders the canonical form
// back.
func ParseTopology(n int, spec string) (*Topology, error) {
	return topology.ParseSpec(n, spec)
}

// SpreadAcrossDomains relabels a placement's abstract node ids onto
// physical nodes so each object's replicas land in maximally distinct
// failure domains. The result is never worse than the input under the
// exact d-whole-domain adversary (the identity mapping competes), and
// node-level availability is unchanged (the node adversary is label
// blind). It returns the relabeled placement and the mapping used.
func SpreadAcrossDomains(pl *Placement, topo *Topology, s, d int) (*Placement, []int, error) {
	return placement.SpreadAcrossDomains(pl, topo, s, d)
}

// SpreadAcrossDomainsWith is SpreadAcrossDomains with explicit options:
// SpreadOptions.Caps bounds the replicas each leaf domain may absorb
// (the never-worse guarantee then holds among cap-feasible layouts).
func SpreadAcrossDomainsWith(pl *Placement, topo *Topology, s, d int, opts SpreadOptions) (*Placement, []int, error) {
	return placement.SpreadAcrossDomainsWith(pl, topo, s, d, opts)
}

// DomainSpread reports per-object domain-spread statistics.
func DomainSpread(pl *Placement, topo *Topology) (SpreadStats, error) {
	return placement.DomainSpread(pl, topo)
}

// ObjectWeights derives per-object weights from the topology's node
// weights (an object inherits its hottest replica host's weight), the
// vector weighted adversaries consume; nil on unweighted topologies.
func ObjectWeights(pl *Placement, topo *Topology) ([]int64, error) {
	return placement.ObjectWeights(pl, topo)
}

// SumWeights is the weighted analogue of the object count: Σ w (or b
// itself when w is nil), the baseline weighted availability is measured
// against.
func SumWeights(w []int64, b int) int64 {
	return placement.SumWeights(w, b)
}

// NewCluster builds a simulated storage cluster (see ClusterConfig).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}
