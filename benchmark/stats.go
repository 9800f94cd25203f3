package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns vs in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	return percentile(sortedCopy(vs), 50)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method) — the rule the
// acceptance driver applies to ten runs. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of vs as a share of its median — the
// run-to-run (or window-to-window) noise figure every bound is held against.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / med)
}

// quiet returns the decile of vs nearest its better end: the 90th percentile
// of a metric where higher is better, the 10th where lower is.
//
// Timing metrics report the quiet decile of their per-window values, not the
// median. On the shared 2-vCPU hosts this benchmark is sized for, the host
// slows a run down for seconds to minutes at a time and never speeds it up:
// in sizing, 1 s windows of one run ranged from 15 k to 29 k msgs/s (CPU per
// message from 60 to 110 us) while the best windows agreed within a few
// percent from run to run. Over ten runs the median of windows spread 13 %,
// the best quarter 7 %, the best tenth 6 %. The quiet decile estimates the
// undisturbed system, still takes two good windows rather than one lucky
// one, and moves with every window when the code itself gets slower. What it
// cannot see is a change that adds occasional stalls; the whole-run figures
// printed beside it show those.
func quiet(vs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(sortedCopy(vs), 90)
	}
	return percentile(sortedCopy(vs), 10)
}

// latencySummary condenses one run's per-operation latencies.
type latencySummary struct {
	Count                int
	P50, P95, P99, P99_9 float64 // milliseconds
}

func summarizeMillis(samples []float64) latencySummary {
	s := sortedCopy(samples)
	return latencySummary{
		Count: len(s),
		P50:   percentile(s, 50),
		P95:   percentile(s, 95),
		P99:   percentile(s, 99),
		P99_9: percentile(s, 99.9),
	}
}
