package main

import (
	"math"
	"slices"
)

// Metric is one end-to-end metric of BENCHMARK.json: the benchmark fails a
// change whose median is worse than the parent's by more than Bound, a
// share of the parent's median.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// Verdict is the benchmark's judgement of one metric over a set of pairs.
type Verdict string

const (
	// Gain: the change won at least nine pairs in ten, and its median is
	// better than the parent's by more than the parent's interquartile
	// range.
	Gain Verdict = "gain"
	// Within: no regression beyond the bound, and not a gain.
	Within Verdict = "within bound"
	// Regression: the change's median is worse than the parent's by more
	// than the bound.
	Regression Verdict = "regression"
	// Unresolved: one side's interquartile range is wider than the bound
	// (as a share of its median), so the runs cannot tell a change of the
	// bound's size from noise — unless every change run is better than
	// every parent run.
	Unresolved Verdict = "unresolved"
)

// Quartiles are the first quartile, median and third quartile of a sample.
type Quartiles struct {
	Q1, Median, Q3 float64
}

// IQR is the interquartile range.
func (q Quartiles) IQR() float64 { return q.Q3 - q.Q1 }

// spread is the interquartile range as a share of the median; a zero
// median has no spread only when every quartile is zero.
func (q Quartiles) spread() float64 {
	if q.Median == 0 {
		if q.IQR() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return q.IQR() / math.Abs(q.Median)
}

// quartiles computes a sample's quartiles by linear interpolation between
// order statistics (the method of R's default and numpy's "linear").
func quartiles(xs []float64) Quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		h := p * float64(len(s)-1)
		lo := int(math.Floor(h))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
	}
	return Quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// Summary is one metric judged over paired runs.
type Summary struct {
	Metric         Metric
	Parent, Change Quartiles
	// Ratio is the change's median over the parent's.
	Ratio float64
	// Won counts the pairs in which the change was strictly better.
	Won, Pairs int
	Verdict    Verdict
}

// Judge applies the benchmark's rule to one metric. parent[i] and change[i]
// are the two runs of pair i.
func Judge(m Metric, parent, change []float64) Summary {
	s := Summary{Metric: m, Parent: quartiles(parent), Change: quartiles(change), Pairs: min(len(parent), len(change))}
	s.Ratio = s.Change.Median / s.Parent.Median
	higher := m.Better == "higher"
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	for i := 0; i < s.Pairs; i++ {
		if better(change[i], parent[i]) {
			s.Won++
		}
	}
	// gap is how much better the change's median is, in the metric's unit;
	// negative when it is worse.
	gap := s.Change.Median - s.Parent.Median
	if !higher {
		gap = -gap
	}
	// apart is true when every change run is better than every parent run,
	// which no spread can make noise.
	apart := len(parent) > 0 && len(change) > 0 &&
		(higher && slices.Min(change) > slices.Max(parent) || !higher && slices.Max(change) < slices.Min(parent))
	switch {
	case -gap > m.Bound*math.Abs(s.Parent.Median):
		s.Verdict = Regression
	case (s.Parent.spread() > m.Bound || s.Change.spread() > m.Bound) && !apart:
		s.Verdict = Unresolved
	case s.Pairs > 0 && 10*s.Won >= 9*s.Pairs && gap > s.Parent.IQR():
		s.Verdict = Gain
	default:
		s.Verdict = Within
	}
	return s
}
