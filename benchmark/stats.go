package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a tail figure resting on fewer is one unlucky sample.
const minBeyond = 10

// quantile is one percentile read off a sample set, with the sample
// count it rests on.
type quantile struct {
	Q       float64 `json:"q"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of
// samples. It refuses when fewer than minBeyond samples lie beyond the
// chosen rank. samples is sorted in place.
func percentile(samples []float64, q float64) (quantile, error) {
	if q <= 0 || q >= 1 {
		return quantile{}, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(samples)
	if n == 0 {
		return quantile{}, fmt.Errorf("p%g of no samples", 100*q)
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond := n - 1 - idx
	if beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has only %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return quantile{Q: q, Value: samples[idx], Samples: n, Beyond: beyond}, nil
}

// interval is a half-open [Start, End) span of monotonic nanoseconds.
type interval struct{ Start, End int64 }

// unionLen returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once. It sorts ivs in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		s, e := max(iv.Start, lo), min(iv.End, hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime splits a parent span into the part its children cover and
// the rest, its self time; the two always sum to the parent's length.
func selfTime(parent interval, children []interval) (self, covered int64) {
	covered = unionLen(children, parent.Start, parent.End)
	return parent.End - parent.Start - covered, covered
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric rejects a metric name or unit outside the benchmark's
// output grammar.
func checkMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
	}
	if !unitName.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	return nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
