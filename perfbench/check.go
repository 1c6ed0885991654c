package main

import (
	"bytes"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/controller"
	"repro/internal/placement"
	"repro/internal/topology"
)

// maxErrs bounds the failure messages a run keeps; the counts stay
// exact.
const maxErrs = 20

// tally counts attempted and failed operations and keeps the first
// failure messages.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one operation, failed when err is non-nil.
func (t *tally) record(op string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// recount counts the objects with at least s replicas on failed nodes,
// independently of the search that named them.
func recount(pl *placement.Placement, failed []bool, s int) int {
	dead := 0
	for obj := range pl.Objects {
		lost := 0
		for _, nd := range pl.ReplicaNodes(obj) {
			if failed[nd] {
				lost++
			}
		}
		if lost >= s {
			dead++
		}
	}
	return dead
}

// checkNodeAttack verifies an exact k-node attack: its witness names k
// distinct nodes and fails exactly res.Failed objects.
func checkNodeAttack(pl *placement.Placement, s, k int, res adversary.Result) error {
	if !res.Exact {
		return fmt.Errorf("result is not exact")
	}
	failed := make([]bool, pl.N)
	for _, nd := range res.Nodes {
		if nd < 0 || nd >= pl.N || failed[nd] {
			return fmt.Errorf("witness %v is not a set of nodes", res.Nodes)
		}
		failed[nd] = true
	}
	if len(res.Nodes) != k {
		return fmt.Errorf("witness has %d nodes, want %d", len(res.Nodes), k)
	}
	if got := recount(pl, failed, s); got != res.Failed {
		return fmt.Errorf("witness %v fails %d objects, result says %d", res.Nodes, got, res.Failed)
	}
	return nil
}

// checkDomainAttack verifies an exact d-rack attack: its witness names
// d distinct leaf domains, and failing their nodes fails exactly
// res.Failed objects.
func checkDomainAttack(pl *placement.Placement, topo *topology.Topology, s, d int, res adversary.DomainResult) error {
	if !res.Exact {
		return fmt.Errorf("result is not exact")
	}
	leaves := topo.Leaves()
	seen := make(map[int]bool, len(res.Domains))
	failed := make([]bool, pl.N)
	for _, dom := range res.Domains {
		if dom < 0 || dom >= len(leaves) || seen[dom] {
			return fmt.Errorf("witness %v is not a set of domains", res.Domains)
		}
		seen[dom] = true
		for _, nd := range leaves[dom].Nodes {
			failed[nd] = true
		}
	}
	if len(res.Domains) != d {
		return fmt.Errorf("witness has %d domains, want %d", len(res.Domains), d)
	}
	if got := recount(pl, failed, s); got != res.Failed {
		return fmt.Errorf("witness %v fails %d objects, result says %d", res.Domains, got, res.Failed)
	}
	return nil
}

// checkStep verifies one reconcile step: the never-degrade invariant
// held, and every move finished (the in-memory data plane never fails a
// well-formed call, so any other result is a protocol error).
func checkStep(rep *controller.StepReport) error {
	if rep.Damage > rep.Baseline {
		return fmt.Errorf("damage %d > baseline %d", rep.Damage, rep.Baseline)
	}
	for _, mv := range rep.Moves {
		if mv.Result != controller.MoveDone {
			return fmt.Errorf("move %v %s: %s", mv.Move, mv.Result, mv.Err)
		}
	}
	return nil
}

// checkQuiesced verifies a controller that reached clean: the data
// plane holds exactly the logical placement, and the journal on disk
// reloads to the live checkpoint. A journaled Baseline that lags the
// live one is reported as stale rather than failed: the controller
// re-evaluates its baseline at the start of every step but journals it
// only with the next phase transition, so a step that lowers the
// damage and moves nothing leaves the old, higher value on disk (see
// README.md, "Known defect"). A journaled Baseline below the live one,
// or any other difference, fails.
func checkQuiesced(ctrl *controller.Controller, mem *controller.MemActuator, journal string) (staleBaseline bool, err error) {
	if fl := ctrl.InFlightMove(); fl != nil {
		return false, fmt.Errorf("move %v still in flight at clean", fl.Move)
	}
	if diff := mem.Diff(ctrl.Placement(), nil); diff != "" {
		return false, fmt.Errorf("data plane diverges from placement: %s", diff)
	}
	disk, err := controller.LoadCheckpoint(journal)
	if err != nil {
		return false, err
	}
	live := ctrl.Checkpoint()
	if disk.Baseline > live.Baseline {
		staleBaseline = true
		disk.Baseline = live.Baseline
	}
	diskBytes, err := disk.Encode()
	if err != nil {
		return false, err
	}
	liveBytes, err := live.Encode()
	if err != nil {
		return false, err
	}
	if !bytes.Equal(diskBytes, liveBytes) {
		return false, fmt.Errorf("journal does not reload to the live checkpoint")
	}
	return staleBaseline, nil
}
