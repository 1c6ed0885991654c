package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer than ten and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs: the
// smallest sample with at least q·n samples at or below it. It fails
// when fewer than minBeyond samples lie above that rank, so p50 needs
// at least 20 samples and p90 at least 100.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// windowedPercentile splits xs, taken in call order, into consecutive
// windows of w samples (a trailing partial window joins the one before
// it), takes each window's q-quantile, and returns the median of those.
// A stretch of the run that the shared host slows down moves only the
// windows it covers, so the reported value holds while the stretch
// covers fewer than half of them; a pooled percentile would move with
// every slowed sample. Fewer than w samples make one window.
func windowedPercentile(xs []float64, q float64, w int) (float64, error) {
	k := max(1, len(xs)/w)
	per := make([]float64, k)
	for i := range per {
		end := (i + 1) * w
		if i == k-1 {
			end = len(xs)
		}
		v, err := percentile(xs[i*w:end], q)
		if err != nil {
			return 0, err
		}
		per[i] = v
	}
	return median(per), nil
}

// minSamples is the smallest sample count whose q-quantile has
// minBeyond samples above it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// median returns the middle sample (the mean of the two middle ones
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload did
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
