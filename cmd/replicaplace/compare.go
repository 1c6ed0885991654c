package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/search"
)

// cmdCompare builds a Combo and a Random placement for the same
// parameters and attacks both with the worst-case adversary — the
// paper's comparison, end to end on concrete placements.
func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	mf := addModelFlags(fs)
	tf := addTopologyFlags(fs, 0)
	workers := addWorkersFlag(fs, 0)
	boundFlag := addBoundFlag(fs)
	stats := addStatsFlag(fs)
	budget := fs.Int64("budget", 5_000_000, "adversary search budget per placement (0 = exact)")
	trials := fs.Int("trials", 3, "random placements to try")
	seed := fs.Int64("seed", 1, "base seed for random placements")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.validate(fs); err != nil {
		return err
	}
	bound, err := search.ParseBound(*boundFlag)
	if err != nil {
		return err
	}
	// The domain section parallelizes only on explicit -workers: its
	// default budgeted search stays serial so identical invocations keep
	// printing identical (deterministic) lower bounds — workers racing
	// for a shared budget may visit different states run to run.
	domainWorkers := 1
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			domainWorkers = *workers
		}
	})
	p := placement.Params{N: mf.n, B: mf.b, R: mf.r, S: mf.s, K: mf.k}
	if err := p.Validate(); err != nil {
		return err
	}

	nodeOpts := adversary.SearchOpts{Budget: *budget, Workers: cliWorkers(*workers), Bound: bound}
	combo, spec, guarantee, err := placement.BuildDefaultCombo(mf.n, mf.r, mf.s, mf.k, mf.b)
	if err != nil {
		return err
	}
	comboRes, err := adversary.Attack(combo, adversary.Target{S: mf.s, K: mf.k}, nodeOpts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "combo placement (lambdas %v):\n", spec.Lambdas)
	fmt.Fprintf(w, "  guaranteed Avail >= %d\n", guarantee)
	fmt.Fprintf(w, "  measured  Avail  = %d (%s, attack %v)\n",
		comboRes.Avail(mf.b), exactness(comboRes.Exact), comboRes.Nodes)
	if *stats {
		fmt.Fprint(w, statsLine("combo", bound, comboRes.Visited, *budget, comboRes.Exact))
	}
	if hist, err := combo.OverlapHistogram(0, 1); err == nil {
		fmt.Fprintf(w, "  replica-set overlap histogram: %v\n", hist)
	}

	fmt.Fprintf(w, "random placements (%d trials):\n", *trials)
	worst := mf.b + 1
	for trial := 0; trial < *trials; trial++ {
		rp, err := randplace.Generate(p, *seed+int64(trial))
		if err != nil {
			return err
		}
		res, err := adversary.Attack(rp, adversary.Target{S: mf.s, K: mf.k}, nodeOpts)
		if err != nil {
			return err
		}
		avail := res.Avail(mf.b)
		if avail < worst {
			worst = avail
		}
		fmt.Fprintf(w, "  trial %d: Avail = %d (%s)\n", trial, avail, exactness(res.Exact))
		if *stats {
			fmt.Fprint(w, statsLine(fmt.Sprintf("random trial %d", trial), bound, res.Visited, *budget, res.Exact))
		}
	}
	pr, err := randplace.PrAvailTable(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  analytic prAvail = %d\n", pr)
	fmt.Fprintf(w, "\nverdict: combo guarantees %d; random achieved as low as %d\n", guarantee, worst)
	if tf.enabled() {
		domOpts := adversary.SearchOpts{Budget: *budget, Workers: cliWorkers(domainWorkers), Bound: bound}
		return compareTopologySection(w, mf, tf, combo, p, *trials, *seed, domOpts, *stats)
	}
	return nil
}

// compareTopologySection appends the correlated-failure comparison:
// combo (oblivious and spread) and the same random trials as the
// node-level section, under the worst dfail whole-domain failures at
// the chosen topology level.
func compareTopologySection(w io.Writer, mf *modelFlags, tf *topologyFlags,
	combo *placement.Placement, p placement.Params, trials int, seed int64, opts adversary.SearchOpts, stats bool) error {
	topo, err := tf.build(mf.n)
	if err != nil {
		return err
	}
	var spreadTel placement.SpreadTelemetry
	aware, _, err := placement.SpreadAcrossDomainsWith(combo, topo, mf.s, tf.dfail,
		placement.SpreadOpts{Weighted: topo.Weighted(), Telemetry: &spreadTel})
	if err != nil {
		return err
	}
	nd, word, dl, err := levelDomains(topo, tf.level, tf.dfail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndomain adversary (%d %ss, worst %d whole-domain failures):\n",
		nd, word, dl)
	for _, layout := range []struct {
		name string
		pl   *placement.Placement
	}{
		{"combo, domain-oblivious", combo},
		{"combo, domain-aware    ", aware},
	} {
		res, err := adversary.Attack(layout.pl, adversary.Target{S: mf.s, D: dl, Topo: topo, Level: tf.level}, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s: Avail = %d (%s)\n", layout.name, res.Avail(mf.b), exactness(res.Exact))
		if stats {
			fmt.Fprint(w, statsLine(strings.TrimSpace(layout.name), opts.Bound, res.Visited, opts.Budget, res.Exact))
		}
	}
	if stats {
		fmt.Fprint(w, spreadStatsLine(spreadTel))
	}
	if topo.Weighted() {
		if err := weightedDomainSection(w, topo, tf.level, mf.s, dl, opts,
			[]namedLayout{{"combo, domain-oblivious", combo}, {"combo, domain-aware", aware}}); err != nil {
			return err
		}
	}
	if trials < 1 {
		return nil
	}
	worst := mf.b + 1
	allExact := true
	for trial := 0; trial < trials; trial++ {
		rp, err := randplace.Generate(p, seed+int64(trial))
		if err != nil {
			return err
		}
		res, err := adversary.Attack(rp, adversary.Target{S: mf.s, D: dl, Topo: topo, Level: tf.level}, opts)
		if err != nil {
			return err
		}
		if avail := res.Avail(mf.b); avail < worst {
			worst = avail
		}
		allExact = allExact && res.Exact
	}
	fmt.Fprintf(w, "  random (worst of %d)    : Avail = %d (%s)\n",
		trials, worst, exactness(allExact))
	return nil
}

func exactness(exact bool) string {
	if exact {
		return "exact"
	}
	return "budgeted lower bound on damage"
}

// cmdVerify checks a placement file against the Simple(x, λ) property
// and prints quality metrics.
func cmdVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	in := fs.String("in", "", "placement JSON file (required)")
	x := fs.Int("x", 1, "overlap bound to verify against")
	lambda := fs.Int("lambda", 1, "multiplicity bound λ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	pl, err := placement.DecodeJSON(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "placement: n=%d r=%d b=%d\n", pl.N, pl.R, pl.B())
	maxOverlap := pl.MaxOverlap(*x)
	status := "SATISFIED"
	if maxOverlap > *lambda {
		status = "VIOLATED"
	}
	fmt.Fprintf(w, "Simple(%d, %d) property: %s (max objects sharing %d nodes: %d)\n",
		*x, *lambda, status, *x+1, maxOverlap)
	spread, mean, err := pl.LoadImbalance()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "load: mean %.2f replicas/node, spread %d\n", mean, spread)
	hist, err := pl.OverlapHistogram(1<<18, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pairwise overlap histogram: %v\n", hist)
	if status == "VIOLATED" {
		return fmt.Errorf("verify: placement is not Simple(%d, %d)", *x, *lambda)
	}
	return nil
}
