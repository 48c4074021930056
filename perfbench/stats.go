package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	return sorted(xs)[rankIndex(n, q)]
}

// rankIndex is the 0-based index of the nearest-rank q-quantile of n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailSamples counts the samples strictly beyond the nearest-rank
// q-quantile of n samples. A percentile is reported only with at least ten
// of them: p90 needs 100 samples.
func tailSamples(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

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

// ratio is a share reported together with its base, so 0/0 ("nothing
// happened") is never mistaken for 0/n ("it never worked").
type ratio struct {
	num, den int64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

func (r ratio) base() string { return fmt.Sprintf("%d/%d", r.num, r.den) }

// histDelta subtracts an earlier snapshot of the same histogram, giving the
// observations made between the two scrapes.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: make([]int64, len(after.Counts)),
		Sum: after.Sum - before.Sum, Count: after.Count - before.Count}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histQuantile estimates the q-quantile of a bucketed histogram by linear
// interpolation inside the bucket holding it. Bucket i covers
// (Bounds[i-1], Bounds[i]]; the first starts at 0, and a quantile in the
// overflow bucket reports the last bound. The server's buckets double in
// width, so the estimate is only as fine as the bucket it lands in.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i >= len(h.Bounds) {
				return float64(h.Bounds[len(h.Bounds)-1])
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			hi := float64(h.Bounds[i])
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}
