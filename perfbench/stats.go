package main

import (
	"fmt"
	"sort"
)

// tailPercentiles are the candidate tail percentiles in basis points of a
// percent (9900 = p99), lowest first. tailOf picks the highest one that
// leaves at least minBeyond samples above its rank.
var tailPercentiles = []int{9000, 9900, 9990, 9999}

// minBeyond is how many samples must lie beyond a tail percentile's rank
// for the percentile to be reported.
const minBeyond = 10

// rankOf is the 1-based nearest rank of percentile bp (basis points of a
// percent) among n samples: ceil(bp/10000 · n), at least 1.
func rankOf(bp, n int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile bp of sorted samples.
func percentile(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(bp, len(sorted))-1]
}

// tailStat is a tail latency with the percentile it was read at.
type tailStat struct {
	// BP is the percentile in basis points; 10000 means the maximum,
	// used when no tail percentile has minBeyond samples beyond it.
	BP    int
	Value float64
	N     int
}

// label renders the percentile as "p99", "p99.9" or "max".
func (t tailStat) label() string {
	if t.BP >= 10000 {
		return "max"
	}
	s := fmt.Sprintf("p%.2f", float64(t.BP)/100)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// tailOf returns the highest tail percentile of sorted samples with at
// least minBeyond samples beyond its rank, or the maximum when even the
// lowest candidate has fewer.
func tailOf(sorted []float64) tailStat {
	n := len(sorted)
	best := tailStat{BP: 10000, N: n}
	if n > 0 {
		best.Value = sorted[n-1]
	}
	for _, bp := range tailPercentiles {
		if n-rankOf(bp, n) >= minBeyond {
			best = tailStat{BP: bp, Value: percentile(sorted, bp), N: n}
		}
	}
	return best
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank p50 of xs (unsorted input).
func median(xs []float64) float64 {
	return percentile(sorted(xs), 5000)
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
