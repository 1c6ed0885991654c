package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/topology"
)

// The attack workload: one client sends exact (budget 0), serial
// attack requests, four node-level requests at the paper's scale to one
// domain-level request on a 500-rack cluster, each on a freshly
// generated placement so no cross-request cache can answer it.
const (
	nodeN, nodeB, nodeR, nodeS, nodeK = 71, 600, 3, 2, 4

	domN, domZones, domRacks = 1000, 25, 20
	domObjects, domR         = 2000, 3
	domS, domD               = 2, 3
	attackMix                = 5  // every attackMix-th request is domain-level
	attackPrefix             = 20 // requests the deterministic counts cover
	// attackRate is how many requests a second the mix completes on
	// the reference host (2 cores); a run sends --seconds × attackRate
	// requests (half that per copy when traced), rounded up to whole
	// mix cycles, and at least enough for the latency percentiles.
	attackRate = 7
)

// attackReferenceJSON holds the damages of the first requests on
// defaultSeed (regenerate with go test -run TestAttackReference -update).
//
//go:embed attack_reference.json
var attackReferenceJSON []byte

// attackRecord is one request's span: its kind, call time and search
// states.
type attackRecord struct {
	domain  bool
	dur     time.Duration
	visited int64
}

func runAttack(cfg config) (*report, error) {
	rep := newReport()
	var reference []int
	if err := json.Unmarshal(attackReferenceJSON, &reference); err != nil {
		return nil, fmt.Errorf("attack reference: %w", err)
	}
	if cfg.seed != defaultSeed {
		reference = nil
	}

	var topo *topology.Topology
	var setups []float64
	err := repeatSetUp(func() error {
		start := time.Now()
		t, err := topology.UniformHierarchy(domN, domZones, domRacks)
		setups = append(setups, time.Since(start).Seconds())
		topo = t
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)

	cycles := math.Ceil(cfg.seconds.Seconds() * attackRate / attackMix)
	copies := 1
	if cfg.trace {
		// The traced and untraced copies share the run's time.
		copies = 2
		cycles = math.Ceil(cycles / 2)
	}
	n := max(int(cycles)*attackMix, minSamples(0.9), attackPrefix)
	passes, err := attackPass(cfg.seed, n, topo, reference, copies, &rep.tally)
	if err != nil {
		return nil, err
	}
	recs := passes[0]
	lat := durationsMS(recs)
	rep.e2e["ops_per_s"] = float64(len(recs)) / (sum(lat) / 1000)
	rep.setPercentile("latency_ms_p50", lat, 0.5)
	rep.setPercentile("latency_ms_p90", lat, 0.9)
	node, dom := splitAttacks(recs[:attackPrefix])
	rep.layers["search.states.node"] = ratio(sumVisited(node), float64(len(node)))
	rep.layers["search.states.domain"] = ratio(sumVisited(dom), float64(len(dom)))

	if cfg.trace {
		traced := passes[1]
		node, dom := splitAttacks(traced)
		rep.layers["adversary.attack_ms.node"] = median(durationsMS(node))
		rep.layers["adversary.attack_ms.domain"] = median(durationsMS(dom))
		rep.layers["search.ns_per_state.node"] = ratio(sum(durationsMS(node))*1e6, sumVisited(node))
		rep.layers["search.ns_per_state.domain"] = ratio(sum(durationsMS(dom))*1e6, sumVisited(dom))
		rep.layers["trace_overhead_pct"] = (sum(durationsMS(traced))/sum(lat) - 1) * 100
	}
	return rep, nil
}

// attackPass sends n requests. Each request's input is generated
// outside the timed call and then sent copies times, in an order that
// alternates from request to request, so that a traced copy and an
// untraced one see the same inputs and the same drift in machine speed.
// It returns each copy's records.
func attackPass(seed int64, n int, topo *topology.Topology, reference []int, copies int, t *tally) ([][]attackRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]attackRecord, copies)
	for i := 0; i < n; i++ {
		inputSeed := rng.Int63()
		send, err := newAttackRequest(i, inputSeed, topo)
		if err != nil {
			return nil, err
		}
		for j := 0; j < copies; j++ {
			c := (i + j) % copies
			rec, damage, err := send()
			if err == nil {
				err = checkReference(reference, i, damage)
			}
			t.record(fmt.Sprintf("request %d", i), err)
			recs[c] = append(recs[c], rec)
		}
	}
	return recs, nil
}

// newAttackRequest generates request i's input from inputSeed and
// returns the call that sends it: it times the attack, checks the
// result, and returns the span and the damage.
func newAttackRequest(i int, inputSeed int64, topo *topology.Topology) (func() (attackRecord, int, error), error) {
	if i%attackMix == attackMix-1 {
		pl, err := zoneConfined(domN, domObjects, domR, domZones, inputSeed)
		if err != nil {
			return nil, err
		}
		return func() (attackRecord, int, error) {
			start := time.Now()
			res, err := adversary.DomainWorstCase(pl, topo, domS, domD, 0)
			rec := attackRecord{domain: true, dur: time.Since(start), visited: res.Visited}
			if err != nil {
				return rec, 0, err
			}
			return rec, res.Failed, checkDomainAttack(pl, topo, domS, domD, res)
		}, nil
	}
	pl, err := randplace.Generate(placement.Params{N: nodeN, B: nodeB, R: nodeR, S: nodeS, K: nodeK}, inputSeed)
	if err != nil {
		return nil, err
	}
	return func() (attackRecord, int, error) {
		start := time.Now()
		res, err := adversary.WorstCase(pl, nodeS, nodeK, 0)
		rec := attackRecord{dur: time.Since(start), visited: res.Visited}
		if err != nil {
			return rec, 0, err
		}
		return rec, res.Failed, checkNodeAttack(pl, nodeS, nodeK, res)
	}, nil
}

// checkReference compares request i's damage with the reference table,
// which covers the first requests of defaultSeed (nil otherwise).
func checkReference(reference []int, i, damage int) error {
	if i < len(reference) && damage != reference[i] {
		return fmt.Errorf("damage %d, reference table says %d", damage, reference[i])
	}
	return nil
}

func splitAttacks(recs []attackRecord) (node, dom []attackRecord) {
	for _, r := range recs {
		if r.domain {
			dom = append(dom, r)
		} else {
			node = append(node, r)
		}
	}
	return node, dom
}

func durationsMS(recs []attackRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.dur)
	}
	return out
}

func sumVisited(recs []attackRecord) float64 {
	total := 0.0
	for _, r := range recs {
		total += float64(r.visited)
	}
	return total
}

// zoneConfined places each object's r replicas on distinct nodes of one
// random zone (nodes are numbered zone by zone, n/zones per zone) —
// the zone-local layout of the repository's large-cluster benchmarks.
func zoneConfined(n, objects, r, zones int, seed int64) (*placement.Placement, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := placement.NewPlacement(n, r)
	perZone := n / zones
	nodes := make([]int, r)
	for i := 0; i < objects; i++ {
		z := rng.Intn(zones)
		perm := rng.Perm(perZone)
		for j := range nodes {
			nodes[j] = z*perZone + perm[j]
		}
		if err := pl.Add(nodes); err != nil {
			return nil, err
		}
	}
	return pl, nil
}
