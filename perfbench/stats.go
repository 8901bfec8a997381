package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a set of latencies in nanoseconds.
type samples []int64

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 from 200 samples rests on two values and is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples in
// microseconds, and an error when fewer than minBeyond samples lie
// beyond it.
func (s samples) quantile(q float64) (float64, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	return float64(s[rank-1]) / 1e3, nil
}

// meanUS is the mean in microseconds.
func (s samples) meanUS() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s)) / 1e3
}

// median of a float slice (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one measurement window of one op kind: the latencies of
// the ops that completed in it, over wall nanoseconds.
type window struct {
	lat  samples
	wall int64
}

// series is a run's windows of one op kind. Each metric is the median
// over windows, so a burst of outside load that spoils one or two
// windows of a run does not move the run's figure.
type series []window

// mainWindow is the length of a main phase's measurement windows, in
// seconds.
const mainWindow = 4.0

// byTime splits the ops of concurrent callers into windows of winNS
// by completion time over [start, end); the last window takes the
// remainder.
func byTime(outs []opOut, start, end, winNS int64) series {
	if len(outs) == 0 {
		return nil
	}
	n := int((end - start) / winNS)
	if n < 1 {
		n = 1
	}
	wins := make(series, n)
	for i := range wins {
		wins[i].wall = winNS
	}
	wins[n-1].wall = end - start - int64(n-1)*winNS
	for _, o := range outs {
		for j, t := range o.ends {
			i := min(int((t-start)/winNS), n-1)
			wins[i].lat = append(wins[i].lat, o.lat[j])
		}
	}
	return wins
}

// wholeWindow makes the ops of concurrent callers one window, over
// the time the callers that issued any ran.
func wholeWindow(outs []opOut) series {
	var w window
	var start, end int64
	for _, o := range outs {
		if o.ops == 0 {
			continue
		}
		if w.lat == nil {
			start, end = o.start, o.end
		}
		w.lat = append(w.lat, o.lat...)
		start, end = min(start, o.start), max(end, o.end)
	}
	w.wall = end - start
	return series{w}
}

// count is the number of samples over all windows.
func (s series) count() int { return len(s.all()) }

// all pools the samples of every window.
func (s series) all() samples {
	var all samples
	for _, w := range s {
		all = append(all, w.lat...)
	}
	return all
}

// quantile is the median over windows of each window's q-quantile.
func (s series) quantile(q float64) (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	var xs []float64
	for _, w := range s {
		v, err := w.lat.sorted().quantile(q)
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// rate is the median over windows of ops per second, times per.
func (s series) rate(per float64) float64 {
	var xs []float64
	for _, w := range s {
		xs = append(xs, per*ratio(float64(len(w.lat)), float64(w.wall)/1e9))
	}
	return median(xs)
}
