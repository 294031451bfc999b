package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// latencies is one class of per-operation timings in nanoseconds.
type latencies []int64

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1): the smallest
// sample with at least q of the samples at or below it. ok is false for
// an empty sample.
func (l latencies) quantile(q float64) (v int64, ok bool) {
	if len(l) == 0 {
		return 0, false
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := nearestRank(q, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}

// nearestRank is the 1-based rank of the q-quantile of n samples. The
// tolerance keeps q·n that is whole in decimal (0.9999 · 100000) from
// rounding up a rank through binary floating-point error.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailLevels are the informational percentiles, lowest first.
var tailLevels = []float64{0.99, 0.999, 0.9999}

// deepestTail returns the highest percentile of tailLevels that still
// has at least 10 samples beyond it, or ok=false when even p99 has not.
func deepestTail(n int) (q float64, ok bool) {
	for _, lv := range tailLevels {
		if n-nearestRank(lv, n) >= 10 {
			q, ok = lv, true
		}
	}
	return q, ok
}

// ratio is a derived metric num/den; a zero base makes it absent rather
// than NaN or Inf.
type ratio struct {
	v  float64
	ok bool
}

func div(num, den float64) ratio {
	if den == 0 {
		return ratio{}
	}
	return ratio{v: num / den, ok: true}
}

func present(v float64) ratio { return ratio{v: v, ok: true} }

// String prints the value, or "absent" for a zero base.
func (r ratio) String() string {
	if !r.ok {
		return "absent"
	}
	return fmt.Sprintf("%.6g", r.v)
}

// regDelta is the difference between two registry snapshots: counters
// and histogram sums and counts are differenced, gauges keep the later
// reading.
type regDelta struct {
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]histTotals
}

type histTotals struct{ sum, count int64 }

func diffSnapshots(a, b obs.Snapshot) regDelta {
	d := regDelta{counters: map[string]uint64{}, gauges: b.Gauges, hists: map[string]histTotals{}}
	for k, v := range b.Counters {
		d.counters[k] = v - a.Counters[k]
	}
	for k, hb := range b.Histograms {
		ha := a.Histograms[k]
		d.hists[k] = histTotals{sum: hb.Sum - ha.Sum, count: int64(hb.Count - ha.Count)}
	}
	return d
}

// add accumulates another delta (e.g. the second traced segment).
func (d *regDelta) add(o regDelta) {
	if d.counters == nil {
		*d = regDelta{counters: map[string]uint64{}, hists: map[string]histTotals{}}
	}
	for k, v := range o.counters {
		d.counters[k] += v
	}
	d.gauges = o.gauges
	for k, h := range o.hists {
		t := d.hists[k]
		d.hists[k] = histTotals{sum: t.sum + h.sum, count: t.count + h.count}
	}
}

func (d regDelta) c(name string) float64 { return float64(d.counters[name]) }

// histMean is a differenced histogram's mean observation divided by
// scale.
func (d regDelta) histMean(name string, scale float64) ratio {
	h := d.hists[name]
	return div(float64(h.sum)/scale, float64(h.count))
}

func (d regDelta) histSum(name string) float64 { return float64(d.hists[name].sum) }

// median of a small float sample (used for repeated set-up and reopen
// timings).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
