package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/adversary"
	"repro/internal/placement"
	"repro/internal/randplace"
	"repro/internal/search"
	"repro/internal/topology"
)

// cmdPlan runs the DP and prints the chosen ⟨λx⟩ with its guarantee.
func cmdPlan(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	mf := addModelFlags(fs)
	tf := addTopologyFlags(fs, 0)
	workers := addWorkersFlag(fs, 1)
	probeWorkers := addProbeWorkersFlag(fs)
	boundFlag := addBoundFlag(fs)
	stats := addStatsFlag(fs)
	constructible := fs.Bool("constructible", false,
		"restrict to Steiner systems this binary can materialize")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.validate(fs); err != nil {
		return err
	}
	pruneBound, err := search.ParseBound(*boundFlag)
	if err != nil {
		return err
	}
	p := placement.Params{N: mf.n, B: mf.b, R: mf.r, S: mf.s, K: mf.k}
	if err := p.Validate(); err != nil {
		return err
	}
	units, err := placement.DefaultUnits(mf.n, mf.r, mf.s, *constructible)
	if err != nil {
		return err
	}
	spec, bound, err := placement.OptimizeCombo(mf.b, mf.k, mf.s, units)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parameters: n=%d r=%d s=%d k=%d b=%d\n", mf.n, mf.r, mf.s, mf.k, mf.b)
	for x, lambda := range spec.Lambdas {
		u := spec.Units[x]
		fmt.Fprintf(w, "  Simple(x=%d): lambda=%-4d mu=%d capacity/mu=%d\n",
			x, lambda, u.Mu, u.CapPerMu)
	}
	fmt.Fprintf(w, "capacity: %d objects\n", spec.Capacity())
	fmt.Fprintf(w, "guaranteed available under any %d failures: %d of %d (%.2f%%)\n",
		mf.k, bound, mf.b, 100*float64(bound)/float64(mf.b))
	pr, err := randplace.PrAvailTable(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "random placement, probably available:        %d of %d (%.2f%%)\n",
		pr, mf.b, 100*float64(pr)/float64(mf.b))
	if tf.enabled() {
		return planTopologySection(w, mf, tf, adversary.SearchOpts{
			Workers: cliWorkers(*workers),
			Bound:   pruneBound,
		}, *stats, *probeWorkers)
	}
	return nil
}

// planTopologySection extends plan with the correlated-failure picture:
// it materializes the constructible Combo, applies the domain-aware
// spreading pass, and measures availability under dfail whole-domain
// failures at the chosen topology level for both layouts.
func planTopologySection(w io.Writer, mf *modelFlags, tf *topologyFlags, opts adversary.SearchOpts, stats bool, probeWorkers int) error {
	topo, err := tf.build(mf.n)
	if err != nil {
		return err
	}
	combo, spec, _, err := placement.BuildDefaultCombo(mf.n, mf.r, mf.s, mf.k, mf.b)
	if err != nil {
		return err
	}
	// Weighted topologies are spread weighted-aware; capped ones (cap=
	// annotations or -caps) are spread under their caps — an infeasible
	// cap set surfaces the checker's certificate as this error.
	var spreadTel placement.SpreadTelemetry
	aware, _, err := placement.SpreadAcrossDomainsWith(combo, topo, mf.s, tf.dfail,
		placement.SpreadOpts{Weighted: topo.Weighted(), Telemetry: &spreadTel, ProbeWorkers: probeWorkers})
	if err != nil {
		return err
	}
	nd, word, dl, err := levelDomains(topo, tf.level, tf.dfail)
	if err != nil {
		return err
	}
	oblivious, err := adversary.Attack(combo, adversary.Target{S: mf.s, D: dl, Topo: topo, Level: tf.level}, opts)
	if err != nil {
		return err
	}
	spread, err := adversary.Attack(aware, adversary.Target{S: mf.s, D: dl, Topo: topo, Level: tf.level}, opts)
	if err != nil {
		return err
	}
	// The analytic section above may have planned with non-constructible
	// units; this section always measures a constructible materialization,
	// so name its lambdas to keep the output self-describing. Flat
	// topologies keep the historical header; trees name the attacked
	// level.
	levelNote := ""
	if topo.Levels() > 1 {
		levelNote = fmt.Sprintf(" %ss", word)
	}
	fmt.Fprintf(w, "failure domains (%d%s): measured on constructible combo (lambdas %v) under any %d whole-domain failures:\n",
		nd, levelNote, spec.Lambdas, dl)
	fmt.Fprintf(w, "  domain-oblivious combo:                    %d of %d (%.2f%%)\n",
		oblivious.Avail(mf.b), mf.b, 100*float64(oblivious.Avail(mf.b))/float64(mf.b))
	if stats {
		fmt.Fprint(w, statsLine("domain-oblivious", opts.Bound, oblivious.Visited, opts.Budget, oblivious.Exact))
	}
	fmt.Fprintf(w, "  domain-aware combo (spread post-pass):     %d of %d (%.2f%%)\n",
		spread.Avail(mf.b), mf.b, 100*float64(spread.Avail(mf.b))/float64(mf.b))
	if stats {
		fmt.Fprint(w, statsLine("domain-aware", opts.Bound, spread.Visited, opts.Budget, spread.Exact))
		fmt.Fprint(w, spreadStatsLine(spreadTel))
	}
	if topo.Weighted() {
		if err := weightedDomainSection(w, topo, tf.level, mf.s, dl, opts,
			[]namedLayout{{"domain-oblivious", combo}, {"domain-aware", aware}}); err != nil {
			return err
		}
	}
	return nil
}

// namedLayout pairs a placement with its display name for the weighted
// sections.
type namedLayout struct {
	name string
	pl   *placement.Placement
}

// weightedDomainSection prints the lost-weight picture of the same
// whole-domain attack for each layout: the adversary maximizes the
// failed objects' total weight (objects inherit their hottest replica
// host's weight), so hot-node topologies expose risk the plain object
// count hides.
func weightedDomainSection(w io.Writer, topo *topology.Topology, level, s, dl int,
	opts adversary.SearchOpts, layouts []namedLayout) error {
	fmt.Fprintf(w, "  weighted (node weights set; adversary maximizes lost weight):\n")
	for _, layout := range layouts {
		objW, err := placement.ObjectWeights(layout.pl, topo)
		if err != nil {
			return err
		}
		wOpts := opts
		wOpts.ObjWeights = objW
		res, err := adversary.Attack(layout.pl, adversary.Target{S: s, D: dl, Topo: topo, Level: level}, wOpts)
		if err != nil {
			return err
		}
		total := placement.SumWeights(objW, layout.pl.B())
		fmt.Fprintf(w, "    %-24s loses weight %d of %d (%.2f%% survives)\n",
			layout.name+":", res.Failed, total, 100*float64(total-int64(res.Failed))/float64(total))
	}
	return nil
}

// cmdPlace materializes a placement and writes it as JSON.
func cmdPlace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	mf := addModelFlags(fs)
	out := fs.String("out", "", "output file (default stdout)")
	strategy := fs.String("strategy", "combo", "combo | random")
	seed := fs.Int64("seed", 1, "seed for random strategy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := placement.Params{N: mf.n, B: mf.b, R: mf.r, S: mf.s, K: mf.k}
	if err := p.Validate(); err != nil {
		return err
	}
	var (
		pl  *placement.Placement
		err error
	)
	switch *strategy {
	case "combo":
		units, uerr := placement.DefaultUnits(mf.n, mf.r, mf.s, true)
		if uerr != nil {
			return uerr
		}
		spec, _, oerr := placement.OptimizeCombo(mf.b, mf.k, mf.s, units)
		if oerr != nil {
			return oerr
		}
		pl, err = placement.BuildCombo(mf.n, mf.r, spec, mf.b, placement.SimpleOptions{})
	case "random":
		pl, err = randplace.Generate(p, *seed)
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	if err != nil {
		return err
	}
	dst := w
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		dst = f
	}
	return pl.EncodeJSON(dst)
}

// cmdAttack loads a placement and finds its worst k failures; with a
// topology (-racks or -topo) it also reports the worst correlated
// whole-domain failure at the chosen -level.
func cmdAttack(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	in := fs.String("in", "", "placement JSON file (required)")
	s := fs.Int("s", 2, "replica failures that fail an object")
	k := fs.Int("k", 4, "node failures")
	budget := fs.Int64("budget", 0, "branch-and-bound node budget (0 = exact)")
	boundFlag := addBoundFlag(fs)
	tf := addTopologyFlags(fs, 0)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("attack: -in is required")
	}
	if err := tf.validate(fs); err != nil {
		return err
	}
	bound, err := search.ParseBound(*boundFlag)
	if err != nil {
		return err
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
	res, err := adversary.Attack(pl, adversary.Target{S: *s, K: *k}, adversary.SearchOpts{Budget: *budget, Bound: bound})
	if err != nil {
		return err
	}
	mode := "exact"
	if !res.Exact {
		mode = "lower bound (budget exhausted)"
	}
	fmt.Fprintf(w, "objects: %d, worst %d-node failure fails %d objects (%s)\n",
		pl.B(), *k, res.Failed, mode)
	fmt.Fprintf(w, "failed nodes: %v\n", res.Nodes)
	fmt.Fprintf(w, "Avail = %d (%.2f%%), search visited %d states (bound=%s)\n",
		res.Avail(pl.B()), 100*float64(res.Avail(pl.B()))/float64(pl.B()), res.Visited, bound)
	if !tf.enabled() {
		return nil
	}
	topo, err := tf.build(pl.N)
	if err != nil {
		return err
	}
	_, word, dl, err := levelDomains(topo, tf.level, tf.dfail)
	if err != nil {
		return err
	}
	dres, err := adversary.Attack(pl, adversary.Target{S: *s, D: dl, Topo: topo, Level: tf.level}, adversary.SearchOpts{Budget: *budget, Bound: bound})
	if err != nil {
		return err
	}
	dmode := "exact"
	if !dres.Exact {
		dmode = "lower bound (budget exhausted)"
	}
	fmt.Fprintf(w, "correlated: worst %d-%s failure %v fails %d objects (%s)\n",
		dl, word, topo.DomainNamesAt(tf.level, dres.Domains), dres.Failed, dmode)
	fmt.Fprintf(w, "correlated Avail = %d (%.2f%%), search visited %d states\n",
		dres.Avail(pl.B()), 100*float64(dres.Avail(pl.B()))/float64(pl.B()), dres.Visited)
	if topo.Weighted() {
		objW, err := placement.ObjectWeights(pl, topo)
		if err != nil {
			return err
		}
		wres, err := adversary.Attack(pl, adversary.Target{S: *s, D: dl, Topo: topo, Level: tf.level},
			adversary.SearchOpts{Budget: *budget, Bound: bound, ObjWeights: objW})
		if err != nil {
			return err
		}
		total := placement.SumWeights(objW, pl.B())
		fmt.Fprintf(w, "weighted correlated: worst %d-%s failure %v loses weight %d of %d\n",
			dl, word, topo.DomainNamesAt(tf.level, wres.Domains), wres.Failed, total)
	}
	return nil
}

// cmdAnalyze prints the analytic picture for one parameter point.
func cmdAnalyze(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	mf := addModelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := placement.Params{N: mf.n, B: mf.b, R: mf.r, S: mf.s, K: mf.k}
	if err := p.Validate(); err != nil {
		return err
	}
	units, err := placement.DefaultUnits(mf.n, mf.r, mf.s, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parameters: n=%d r=%d s=%d k=%d b=%d (load cap %d)\n",
		mf.n, mf.r, mf.s, mf.k, mf.b, p.Load())
	fmt.Fprintln(w, "\nper-x Simple placements (minimal lambda per Eqn. 1):")
	for _, u := range units {
		lambda, lerr := placement.MinimalLambda(int64(mf.b), u.CapPerMu, u.Mu)
		if lerr != nil {
			return lerr
		}
		lb := placement.LBAvailSimple(int64(mf.b), mf.k, mf.s, u.X, lambda)
		fmt.Fprintf(w, "  x=%d: lambda=%-5d lbAvail_si=%d\n", u.X, lambda, lb)
		if c, alpha, ok := competitive(u, mf); ok {
			fmt.Fprintf(w, "        c-competitive: Avail(any π') < %.4f·Avail(π) + %.2f\n", c, alpha)
		}
	}
	_, bound, err := placement.OptimizeCombo(mf.b, mf.k, mf.s, units)
	if err != nil {
		return err
	}
	pr, err := randplace.PrAvailTable(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nCombo (optimized):  lbAvail_co = %d\n", bound)
	fmt.Fprintf(w, "Random (analysis):  prAvail    = %d\n", pr)
	if int64(mf.b) > int64(pr) {
		improvement := float64(bound-int64(pr)) / float64(int64(mf.b)-int64(pr)) * 100
		fmt.Fprintf(w, "Combo preserves %.0f%% of the objects that probably fail under Random\n",
			improvement)
	}
	if mf.s == 1 {
		fmt.Fprintf(w, "Lemma 4 bound (s=1): prAvail <= %.1f\n", randplace.Lemma4Bound(p))
	}
	return nil
}

func competitive(u placement.Unit, mf *modelFlags) (float64, float64, bool) {
	// Reconstruct n_x from the capacity unit is not possible in general;
	// use n (conservative: c for n_x <= n is larger, so this understates
	// the guarantee only when chunking was used).
	return placement.CompetitiveConstants(mf.n, mf.r, mf.s, mf.k, u.X, u.Mu)
}
