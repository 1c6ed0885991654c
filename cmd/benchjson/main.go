// Command benchjson converts `go test -bench` output on stdin into the
// machine-readable BENCH.json perf baseline on stdout, so every PR can
// record the benchmark trajectory (ns/op, allocs/op, and custom metrics
// like the adversary core's visited-states) as one diffable artifact.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson > BENCH.json
//
// The parser understands the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs — and keeps every pair:
// ns/op and allocs/op are promoted to top-level fields, everything else
// (B/op, MB/s, visited-states, ...) lands in the metrics map. Header
// lines (goos/goarch/cpu/pkg) annotate the following benchmarks. The
// "-N" GOMAXPROCS suffix go test appends on multi-proc hosts is
// stripped, so rows keep one name on every host and bench-check can
// match them against a baseline recorded elsewhere.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result row.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH.json document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output and collects the result rows.
func parse(r io.Reader) (Report, error) {
	var report Report
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBenchLine(line)
			if err != nil {
				return Report{}, err
			}
			if ok {
				b.Package = pkg
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses one result row: `BenchmarkName-8  N  v1 u1  v2 u2 ...`.
// Non-result lines starting with "Benchmark" (e.g. a bare name echoed by
// -v) report ok = false rather than an error.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: trimProcs(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad value %q in %q", fields[i], line)
		}
		v := value
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "allocs/op":
			b.AllocsPerOp = &v
		case "B/op":
			b.BytesPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true, nil
}

// trimProcs drops the trailing "-N" GOMAXPROCS suffix of a benchmark
// name ("BenchmarkX/workers=8-2" → "BenchmarkX/workers=8"). go test only
// appends it when GOMAXPROCS > 1, so a sub-benchmark whose own name
// ends in "-<digits>" would lose that tail too; no tracked row does.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
