package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the nearest-rank first quartile, median and third
// quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

// durationsSeconds converts ds to seconds.
func durationsSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// interval is a closed wall-clock interval.
type interval struct{ start, end time.Time }

// covered returns how much of within the union of ivs covers; parts of
// ivs outside within, and overlaps between ivs, count once.
func covered(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(within.start) {
			iv.start = within.start
		}
		if iv.end.After(within.end) {
			iv.end = within.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it that its child
// spans cover (the choosing-metrics definition of a layer's own time).
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent, children)
}

// roundRates splits a window into rounds of perRound completed
// operations, in completion order, and returns each whole round's
// operations per second. The first round starts at start; each later
// round starts at the previous round's last completion.
func roundRates(start time.Time, completions []time.Time, perRound int) []float64 {
	ts := append([]time.Time(nil), completions...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	var rates []float64
	prev := start
	for end := perRound; end <= len(ts); end += perRound {
		last := ts[end-1]
		if d := last.Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(perRound)/d)
		}
		prev = last
	}
	return rates
}

// splitmix64 is the seed mixer every derived input goes through, so
// one workload seed fixes every input of a run.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives the k-th independent value of a seed stream.
func mix(seed uint64, k uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(k+0x632be59bd9b4e019))
}

// perm returns a seed-determined permutation of 0..n-1.
func perm(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
