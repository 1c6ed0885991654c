package main

import (
	"fmt"
	"math/rand"

	"repro/internal/controller"
	"repro/internal/topology"
)

// churnOp is one mutation of a churn stream. A cap op with shed > 0 is
// resolved when it is applied: the cap becomes the domain's live
// replica load minus shed, so it always binds by exactly shed replicas.
type churnOp struct {
	mut  controller.Mutation
	shed int
}

// churn generates a seeded, feasible mutation stream in rounds. Each
// round takes one node down and brings it back, with at most one node
// down at any time:
//
//	drain|fail X, cap R (shed m), weight W w, cap R 0, restore X
//
// X is drawn from the nodes that start with at least half the mean
// replica load, each at most once per stream, so every round evacuates
// a full node. R is a leaf domain not holding X, so shedding never
// competes with the evacuation; lifting the cap in the same round keeps
// later rounds unconstrained.
type churn struct {
	rng     *rand.Rand
	n       int
	racks   []topology.Domain
	down    []int // eligible nodes in draw order
	maxShed int
}

func newChurn(seed int64, topo *topology.Topology, loads []int, maxShed int) *churn {
	total := 0
	for _, l := range loads {
		total += l
	}
	var eligible []int
	for nd, l := range loads {
		if 2*l*len(loads) >= total {
			eligible = append(eligible, nd)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	return &churn{rng: rng, n: len(loads), racks: topo.Leaves(), down: eligible, maxShed: maxShed}
}

// round returns the next round's mutations.
func (c *churn) round() ([]churnOp, error) {
	if len(c.down) == 0 {
		return nil, fmt.Errorf("churn: every eligible node has been taken down once")
	}
	x := c.down[0]
	c.down = c.down[1:]
	kind := controller.MutDrain
	if c.rng.Intn(2) == 1 {
		kind = controller.MutFail
	}
	rack := c.racks[c.rng.Intn(len(c.racks))]
	for holds(rack, x) {
		rack = c.racks[c.rng.Intn(len(c.racks))]
	}
	shed := 1 + c.rng.Intn(c.maxShed)
	w, weight := c.rng.Intn(c.n), 1+c.rng.Intn(4)
	return []churnOp{
		{mut: controller.Mutation{Kind: kind, Node: x}},
		{mut: controller.Mutation{Kind: controller.MutCap, Domain: rack.Name}, shed: shed},
		{mut: controller.Mutation{Kind: controller.MutWeight, Node: w, Weight: weight}},
		{mut: controller.Mutation{Kind: controller.MutCap, Domain: rack.Name, Cap: 0}},
		{mut: controller.Mutation{Kind: controller.MutRestore, Node: x}},
	}, nil
}

func holds(dom topology.Domain, nd int) bool {
	for _, m := range dom.Nodes {
		if m == nd {
			return true
		}
	}
	return false
}

// resolve turns op into the mutation to apply, given the live per-node
// replica loads.
func (c *churn) resolve(op churnOp, loads []int) controller.Mutation {
	mut := op.mut
	if op.shed == 0 {
		return mut
	}
	for _, rack := range c.racks {
		if rack.Name != mut.Domain {
			continue
		}
		load := 0
		for _, nd := range rack.Nodes {
			load += loads[nd]
		}
		mut.Cap = max(load-op.shed, 1)
	}
	return mut
}
