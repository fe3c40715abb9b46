package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond reports how many of n samples lie strictly past the nearest-rank
// pct-th percentile.
func beyond(n int, pct float64) int {
	return n - int(math.Ceil(pct/100*float64(n)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// durationsMs converts nanosecond samples to a float slice in the given
// unit (1e6 for ms, 1e3 for µs).
func scaled(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceRate is a throughput robust to a stall in part of the run: the
// median over whole one-second slices of the weight completed in each.
// Item i ran from startAt[i] to doneAt[i] (ns since the run started) and
// its weight is spread evenly over that interval, so a slice's sum is
// not rounded to whole items. Runs shorter than three slices fall back
// to total weight over wall time.
func sliceRate(startAt, doneAt, weight []int64, wall time.Duration) float64 {
	const slice = int64(time.Second)
	n := int(int64(wall) / slice)
	var total int64
	for _, w := range weight {
		total += w
	}
	if n < 3 {
		return float64(total) / wall.Seconds()
	}
	sums := make([]float64, n)
	for i, w := range weight {
		a, b := startAt[i], doneAt[i]
		if b <= a {
			if k := int(b / slice); k < n {
				sums[k] += float64(w)
			}
			continue
		}
		for k := int(a / slice); k < n && int64(k)*slice < b; k++ {
			lo, hi := max(a, int64(k)*slice), min(b, int64(k+1)*slice)
			sums[k] += float64(w) * float64(hi-lo) / float64(b-a)
		}
	}
	return median(sums) / (float64(slice) / 1e9)
}

// ones is n weights of 1.
func ones(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// medianSeconds is the median of set-up durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
