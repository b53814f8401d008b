package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one slow outlier, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. It fails when the samples it
// leaves beyond the quantile, n·(1-q), number fewer than minBeyond, so
// p90 needs at least 100 samples and p50 at least 20.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	// The tolerance absorbs rounding in 1-q: 100 samples hold p90.
	if beyond := float64(len(xs)) * (1 - q); beyond+1e-9 < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q*100, minBeyond, len(xs))
	}
	return quantile(xs, q), nil
}

// quantile is the interpolated q-quantile of xs without the tail-count
// rule, for per-layer figures that only describe a run; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricName is the name syntax the result line allows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may key a metric in the result line.
func validName(name string) bool { return metricName.MatchString(name) }
