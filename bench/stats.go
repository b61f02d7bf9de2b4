package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between order statistics. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a timing as the choosing-metrics guide wants it reported:
// median, quartiles, and the sample count behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces samples to their median and quartiles. An empty input
// yields the zero summary.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentiles are the candidates for the reported tail, highest first,
// each with the share of samples beyond it in thousandths.
var tailPercentiles = []struct {
	percentile float64
	beyond     int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tail returns the highest candidate percentile that still has at least ten
// samples beyond it, and the latency there. With fewer than forty samples no
// candidate qualifies and the median is returned as percentile 50.
func tail(samples []float64) (percentile, value float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, c := range tailPercentiles {
		if len(s)*c.beyond >= 10*1000 {
			return c.percentile, quantile(s, c.percentile/100)
		}
	}
	return 50, quantile(s, 0.5)
}

// span is one timed call into a layer. Parent indexes the span that caused
// it in the tracer's slice, -1 for a root. Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children may overlap each other and may
// stick out of the parent; both are clipped).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// Verdicts of a bound comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareBound judges whether b is worse than a by more than bound (a share
// of a's median). higherBetter gives the metric's direction. When either
// side's own spread exceeds the bound — or, for a zero bound, is not zero —
// the runs cannot resolve a difference of that size and the verdict is
// unresolved rather than same.
func compareBound(a, b summary, higherBetter bool, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	worseBy := (b.Median - a.Median) / math.Abs(a.Median)
	if higherBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return verdictWorse
	}
	return verdictSame
}
