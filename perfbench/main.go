// Command perfbench runs one seeded, closed-loop, single-client workload
// against the repro packages, checks every result it gets back, and
// prints the workload's metrics. It times the layers only from outside,
// around calls into their public functions; nothing inside the program
// is instrumented.
//
//	perfbench --workload attack --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced side, which runs in lockstep with an
// untraced side over the same inputs. The exit code is nonzero when any
// check fails. See README.md for the metrics and workloads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"
)

// defaultSeed is the seed the reference damage table was taken on.
const defaultSeed = 1

// stateDir, relative to the root of the checkout the benchmark runs
// from, holds its journals and determinism records; run.sh builds into
// it too.
const stateDir = ".bench_build"

// A run builds its set-up at least setupReps times and for at least
// setupTime (at most setupMaxReps times), each from a freshly collected
// heap; setup_s is the median.
const (
	setupReps    = 15
	setupTime    = 500 * time.Millisecond
	setupMaxReps = 1000
)

// repeatSetUp calls build as the set-up rule above says.
func repeatSetUp(build func() error) error {
	start := time.Now()
	for i := 0; i < setupReps || (i < setupMaxReps && time.Since(start) < setupTime); i++ {
		runtime.GC()
		if err := build(); err != nil {
			return err
		}
	}
	return nil
}

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. ops are attack requests on attack and mutations on the
// reconcile workloads; latency is per attack request or per
// Apply/Step call.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports, in BENCHMARK.json
// order. A metric of a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"search.states.node", "count"},
	{"search.states.domain", "count"},
	{"search.ns_per_state.node", "ns"},
	{"search.ns_per_state.domain", "ns"},
	{"adversary.attack_ms.node", "ms"},
	{"adversary.attack_ms.domain", "ms"},
	{"adversary.evals_per_step", "count/step"},
	{"adversary.memo_hit_pct", "%"},
	{"adversary.skip_pct", "%"},
	{"adversary.warm_pct", "%"},
	{"adversary.rebuilds", "count"},
	{"adversary.states_per_eval", "count/eval"},
	{"adversary.batch_probes", "count/step"},
	{"adversary.forks", "count/step"},
	{"controller.actuate_ms", "ms/step"},
	{"controller.journal_write_ms", "ms"},
	{"controller.journal_writes_per_step", "count/step"},
	{"controller.journal_bytes_per_write", "B"},
	{"controller.journal_ms", "ms/step"},
	{"controller.plan_ms", "ms/step"},
	{"controller.steps_per_mutation", "count/mutation"},
	{"controller.moves_per_mutation", "count/mutation"},
	{"controller.stale_baseline_muts", "count"},
	{"controller.new_ms", "ms"},
	{"placement.combo_ms", "ms"},
	{"placement.spread_ms", "ms"},
	{"placement.spread_evals", "count"},
	{"placement.spread_memo_hits", "count"},
	{"placement.spread_rebuilds", "count"},
	{"trace_overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// detMetrics are the per-layer counts that must repeat exactly from run
// to run of one binary, workload and seed. Every run computes them over
// a fixed prefix of its input stream, traced or not.
var detMetrics = map[string]bool{
	"search.states.node":                 true,
	"search.states.domain":               true,
	"adversary.evals_per_step":           true,
	"adversary.memo_hit_pct":             true,
	"adversary.skip_pct":                 true,
	"adversary.warm_pct":                 true,
	"adversary.rebuilds":                 true,
	"adversary.states_per_eval":          true,
	"adversary.batch_probes":             true,
	"adversary.forks":                    true,
	"controller.journal_writes_per_step": true,
	"controller.steps_per_mutation":      true,
	"controller.moves_per_mutation":      true,
	"controller.stale_baseline_muts":     true,
	"placement.spread_evals":             true,
	"placement.spread_memo_hits":         true,
	"placement.spread_rebuilds":          true,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report is what a workload run hands back: its operation tally, the
// metrics it measured, and run-level problems that are not tied to one
// operation (a determinism mismatch).
type report struct {
	tally
	e2e      map[string]float64
	layers   map[string]float64
	problems []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// setPercentile sets an end-to-end latency percentile from the run's
// per-call latencies in call order: the median, over windows of the
// fewest calls that keep the ten-samples-beyond rule, of each window's
// percentile. It records why when the run has too few samples.
func (r *report) setPercentile(name string, xs []float64, q float64) {
	v, err := windowedPercentile(xs, q, minSamples(q))
	if err != nil {
		r.problem("%s: %v", name, err)
	}
	r.e2e[name] = v
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"attack":          runAttack,
	"reconcile":       func(cfg config) (*report, error) { return runReconcile(cfg, reconcileSmall) },
	"reconcile-large": func(cfg config) (*report, error) { return runReconcile(cfg, reconcileLarge) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: attack, reconcile or reconcile-large")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "run length in seconds: sizes the run's work (see README.md)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload attack|reconcile|reconcile-large, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.e2e["rss_peak_mb"] = peakRSSMB()
	rep.layers["error_rate"] = ratio(float64(rep.failed), float64(rep.attempted))
	if err := checkDeterminism(cfg, rep.layers); err != nil {
		rep.problem("%v", err)
	}

	printHuman(stdout, cfg, rep)
	for _, msg := range rep.errs {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", msg)
	}
	for _, msg := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", msg)
	}
	correct := rep.failed == 0 && len(rep.problems) == 0
	if err := printJSON(stdout, cfg, rep, correct); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// printHuman prints every measured metric by name and unit, then the
// host the numbers were taken on. End-to-end metrics print under the
// workload's own name for them, with the generic name in brackets.
func printHuman(w io.Writer, cfg config, rep *report) {
	fmt.Fprintf(w, "workload %s, seed %d, %v run length, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range endToEnd {
		name := m.name
		if alias, ok := e2eAliases[cfg.workload][m.name]; ok {
			name = fmt.Sprintf("%s (%s)", alias, m.name)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, rep.e2e[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-36s %14.4f ratio (%d failed of %d attempted)\n", "error_rate",
		rep.layers["error_rate"], rep.failed, rep.attempted)
	if cfg.trace {
		fmt.Fprintln(w, "per-layer (traced pass):")
		for _, m := range perLayer {
			v, ok := rep.layers[m.name]
			if !ok {
				continue
			}
			tag := ""
			if detMetrics[m.name] {
				tag = " (det)"
			}
			fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", m.name, v, m.unit, tag)
		}
	}
	fmt.Fprintf(w, "# %s\n", hostLine(cfg))
}

// e2eAliases names the generic end-to-end metrics the way each
// workload's operator reads them.
var e2eAliases = map[string]map[string]string{
	"attack": {
		"ops_per_s":      "attacks_per_s",
		"latency_ms_p50": "attack_ms_p50",
		"latency_ms_p90": "attack_ms_p90",
	},
	"reconcile":       reconcileAliases,
	"reconcile-large": reconcileAliases,
}

var reconcileAliases = map[string]string{
	"ops_per_s":      "mutations_per_s",
	"latency_ms_p50": "step_ms_p50",
	"latency_ms_p90": "step_ms_p90",
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON prints the result line: the end-to-end metrics untraced,
// every per-layer metric traced (0 for layers the workload does not
// exercise).
func printJSON(w io.Writer, cfg config, rep *report, correct bool) error {
	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layers
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, m := range defs {
		metrics[m.name] = jsonMetric{Value: values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func hostLine(cfg config) string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("host=%s nproc=%d gomaxprocs=%d go=%s seed=%d workload=%s journal_fs=%s",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.workload,
		filesystemType(stateDir))
}

// checkDeterminism compares this run's deterministic counts with those
// an earlier run of the same binary, workload and seed recorded in the
// state directory, and records them if none did. A program change
// builds a new binary and so starts a fresh record.
func checkDeterminism(cfg config, layers map[string]float64) error {
	det := map[string]float64{}
	for name := range detMetrics {
		if v, ok := layers[name]; ok {
			det[name] = v
		}
	}
	id, err := binaryID()
	if err != nil {
		return err
	}
	dir := filepath.Join(stateDir, "det")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", id, cfg.workload, cfg.seed))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err = json.Marshal(det)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]float64
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("determinism record %s: %w", path, err)
	}
	if !reflect.DeepEqual(prev, det) {
		return fmt.Errorf("deterministic counts differ from an earlier run of this binary and seed:\n  earlier %v\n  now     %v", prev, det)
	}
	return nil
}

// binaryID names the running executable by a prefix of its SHA-256.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
