package main

import (
	"math"
	"sort"
	"time"
)

// maxErrorShare is the failure share a ladder rung may have.
const (
	maxErrorShare = 0.01
	// minBeyond is how many samples must lie beyond a reported
	// percentile.
	minBeyond = 10
)

// tailQuantile is the highest quantile ≤ want that has at least
// minBeyond of n samples beyond it, floored at the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Min(want, 1-float64(minBeyond)/float64(n))
	return math.Max(q, 0.5)
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Latencies summarises one set of timings. Failed requests count as
// missing every limit: they sort as +Inf.
type Latencies struct {
	N      int     // scheduled requests
	Failed int     // requests that did not succeed
	P50    float64 // ms
	Tail   float64 // ms at quantile TailQ
	TailQ  float64
}

func summarize(ts []Timing) Latencies {
	vals := make([]float64, 0, len(ts))
	failed := 0
	for _, t := range ts {
		if t.OK() {
			vals = append(vals, ms(t.Latency()))
		} else {
			failed++
			vals = append(vals, math.Inf(1))
		}
	}
	sort.Float64s(vals)
	q := tailQuantile(len(vals), 0.99)
	return Latencies{N: len(ts), Failed: failed, P50: quantile(vals, 0.5), Tail: quantile(vals, q), TailQ: q}
}

// ErrorShare is failed ÷ scheduled.
func (l Latencies) ErrorShare() float64 {
	if l.N == 0 {
		return 0
	}
	return float64(l.Failed) / float64(l.N)
}

// Rung is one ladder step's outcome.
type Rung struct {
	Rate    float64 // offered, requests/s
	Goodput float64 // successful responses per second, first due to last done
	Lat     Latencies
	// Miss is the share of the rung's requests that missed the SLO,
	// failures included.
	Miss float64
	// LagGrowthMs is how much later the generator ran in the rung's
	// last quarter than in its first (medians).
	LagGrowthMs float64
	// SLOms is the latency limit the rung is held to.
	SLOms float64
}

// budget is the share of a rung's requests that may miss the SLO: the
// part beyond its tail percentile.
func (r Rung) budget() float64 { return 1 - r.Lat.TailQ }

// saturated reports a rung over the error budget or with a growing
// backlog: generator lag that grew by more than half the SLO, which
// one GC pause or host stall in a short rung does not reach.
func (r Rung) saturated() bool {
	return r.Lat.ErrorShare() > maxErrorShare || r.LagGrowthMs > r.SLOms/2
}

// Meets reports whether the rung holds its tail within the SLO (its
// miss share within budget) without saturating.
func (r Rung) Meets() bool { return r.Miss <= r.budget() && !r.saturated() }

// overrun reports a rung far past the SLO: saturated, or missing it
// three times over budget.
func (r Rung) overrun() bool { return r.saturated() || r.Miss > 3*r.budget() }

func rungOf(rate, sloMs float64, ts []Timing) Rung {
	r := Rung{Rate: rate, Lat: summarize(ts), SLOms: sloMs}
	ok, miss := 0, 0
	var end time.Duration
	for _, t := range ts {
		if t.OK() {
			ok++
			end = max(end, t.Done)
		}
		if !t.OK() || ms(t.Latency()) > sloMs {
			miss++
		}
	}
	if ok > 0 {
		r.Goodput = float64(ok) / (end - ts[0].Due).Seconds()
	}
	if len(ts) > 0 {
		r.Miss = float64(miss) / float64(len(ts))
	}
	if q := len(ts) / 4; q > 0 {
		lag := func(part []Timing) float64 {
			v := make([]float64, 0, len(part))
			for _, t := range part {
				if t.Sent >= 0 {
					v = append(v, ms(t.Lag()))
				} else {
					v = append(v, math.Inf(1))
				}
			}
			return median(v)
		}
		r.LagGrowthMs = lag(ts[len(ts)-q:]) - lag(ts[:q])
	}
	return r
}

// isotonic is the non-decreasing least-squares fit of y
// (pool-adjacent-violators).
func isotonic(y []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, v := range y {
		bs = append(bs, block{v, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(y))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// maxRPS is the highest rate at which the ladder holds the SLO. The
// rungs' miss shares are made non-decreasing in the offered rate, so
// one rung's noise is pooled with its neighbours', and the result is
// interpolated, between the goodputs of the rungs either side, to where
// the fitted share crosses the budget. A saturated rung counts as all
// misses when the next rung saturates too; a backlog the next, faster
// rung does not show was a passing stall, and only its misses count.
// Rungs hold equal request counts, so they share one budget. When even
// the bottom rung is over budget, the rate is scaled down from it in
// proportion and ok is false.
func maxRPS(rungs []Rung) (rps float64, ok bool) {
	if len(rungs) == 0 {
		return 0, false
	}
	miss := make([]float64, len(rungs))
	for i, r := range rungs {
		miss[i] = r.Miss
		if r.saturated() && (i == len(rungs)-1 || rungs[i+1].saturated()) {
			miss[i] = 1
		}
	}
	fit := isotonic(miss)
	b := rungs[0].budget()
	j := 0
	for j < len(fit) && fit[j] <= b {
		j++
	}
	switch j {
	case 0:
		return rungs[0].Goodput * b / fit[0], false
	case len(fit):
		return rungs[j-1].Goodput, true
	}
	frac := (b - fit[j-1]) / (fit[j] - fit[j-1])
	return rungs[j-1].Goodput + frac*(rungs[j].Goodput-rungs[j-1].Goodput), true
}

// Span is one timed call at a layer boundary.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Note carries a detail the span's metrics need (a URL class, a
	// replica, a byte count).
	Note string `json:"note,omitempty"`
}

func (s Span) Dur() int64 { return s.End - s.Start }

// selfTime is the parent's duration minus the part of its interval
// that its children cover; overlapping (parallel) children are counted
// once, and child time outside the parent is ignored.
func selfTime(parent Span, children []Span) int64 {
	return parent.Dur() - covered(parent.Start, parent.End, children)
}

// covered is the length of [lo, hi) covered by the union of spans.
func covered(lo, hi int64, spans []Span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
