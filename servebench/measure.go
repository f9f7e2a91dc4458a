package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endpointMetric names the per-endpoint median metric.
func endpointMetric(ep string) string { return ep + "_p50_ms" }

// endToEnd is the untraced run: set up, warm up, drive the measured
// timeline, then verify every distinct response outside the timed
// window and compute the end-to-end metrics.
func (r *run) endToEnd(ctx context.Context) (*report, error) {
	rep := &report{}
	clock := newStageClock()
	var c *cluster
	defer func() { c.stop() }()
	var setups []float64
	setUp := func(k int) error {
		c.stop()
		var d time.Duration
		var err error
		if c, d, err = r.setup(ctx, k); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		return nil
	}
	for k := 0; k < setupBefore; k++ {
		if err := setUp(k); err != nil {
			return nil, err
		}
	}
	clock.mark("setup")

	bodies := newBodyStore()
	send := sender(ctx, loadClient(workers), c.primary.url, bodies)
	if err := warm(ctx, r.sched.Warmup, send); err != nil {
		return nil, err
	}
	clock.mark("warm-up")
	var before serverStats
	if _, err := getJSON(c.primary.url+"/statsz", &before); err != nil {
		return nil, err
	}

	t0 := time.Now().Add(20 * time.Millisecond)
	ticks0, steal0 := cpuTicks()
	var cpuErr error
	runs := drive(ctx, t0, r.sched, r.w.SLOms, workers, send, func() float64 {
		v, err := c.primary.cpuMs()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return v
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	ticks1, steal1 := cpuTicks()
	if ticks1 > ticks0 {
		rep.notes = append(rep.notes, fmt.Sprintf("hypervisor steal during the measured window: %.1f%% of CPU time",
			100*(steal1-steal0)/(ticks1-ticks0)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := writeTimings(filepath.Join(r.dir, "timings.jsonl"), runs); err != nil {
		return nil, err
	}

	var after serverStats
	if _, err := getJSON(c.primary.url+"/statsz", &after); err != nil {
		return nil, err
	}
	rss, err := c.primary.peakRSSMB()
	if err != nil {
		return nil, err
	}
	clock.mark("measure")
	served := c
	for k := setupBefore; k < setupReps; k++ {
		if err := setUp(k); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups), "s")
	clock.mark("setup after")

	// Counts and latency at the fixed offered rate.
	for _, pr := range runs {
		for _, t := range pr.timings {
			rep.Attempted++
			if !t.OK() {
				rep.Failed++
			}
		}
	}
	fixed := runs[0].timings
	lat := summarize(fixed)
	rep.set("server_cpu_ms_per_query", runs[0].cpuMs/float64(len(fixed)), "ms")
	rep.info("query_p50_ms", lat.P50, "ms")
	rep.info("query_p99_ms", lat.Tail, "ms")
	rep.notes = append(rep.notes, fmt.Sprintf("query tail is p%.2f of %d requests at %.0f rps", lat.TailQ*100, lat.N, runs[0].phase.Rate))
	byEP := map[string][]float64{}
	for _, t := range fixed {
		if t.OK() {
			byEP[t.Endpoint] = append(byEP[t.Endpoint], ms(t.Latency()))
		}
	}
	for _, ep := range endpoints {
		v := byEP[ep]
		if len(v) == 0 {
			rep.fail("no successful %s request in the fixed phase", ep)
			continue
		}
		rep.info(endpointMetric(ep), median(v), "ms")
	}

	// The ladder (the fixed phase is listed for reference).
	var rungs []Rung
	for i, pr := range runs {
		rg := rungOf(pr.phase.Rate, r.w.SLOms, pr.timings)
		if i > 0 {
			rungs = append(rungs, rg)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%-8s offered %5.1f rps: goodput %6.2f rps, p50 %7.2f ms, p%.1f %8.2f ms (n=%d), over SLO %.3f (budget %.3f), errors %.4f, lag growth %.2f ms, meets SLO %v%s",
			pr.phase.Name, pr.phase.Rate, rg.Goodput, rg.Lat.P50, rg.Lat.TailQ*100, rg.Lat.Tail,
			rg.Lat.N, rg.Miss, rg.budget(), rg.Lat.ErrorShare(), rg.LagGrowthMs, rg.Meets(), firstFailure(pr)))
	}
	rps, ok := maxRPS(rungs)
	if !ok {
		rep.notes = append(rep.notes, fmt.Sprintf("max_rps_at_slo is below the ladder: even the bottom rung misses the SLO (tail ≤ %.0f ms, errors ≤ %.0f%%)", r.w.SLOms, maxErrorShare*100))
	}
	rep.info("max_rps_at_slo", rps, "1/s")
	rep.set("server_rss_mb", rss, "MB")

	// Self-checks: the workload still exercises its layer.
	switch r.w.Name {
	case "hot-repeat":
		d := func(f func(s serverStats) int64) float64 { return float64(f(after) - f(before)) }
		hits := d(func(s serverStats) int64 { return s.Engine.Hits })
		all := hits + d(func(s serverStats) int64 { return s.Engine.Misses + s.Engine.Coalesced })
		ratio := hits / max(1, all)
		rep.notes = append(rep.notes, fmt.Sprintf("engine hit ratio after warm-up %.4f (%.0f lookups)", ratio, all))
		if ratio < 0.99 {
			rep.fail("hot-repeat engine hit ratio %.4f < 0.99 after warm-up", ratio)
		}
	case "unique-sweep":
		if n := repeatedURIs(r.sched); n > 0 {
			rep.fail("unique-sweep schedules %d repeated query strings", n)
		}
	}

	o, err := newOracle(r.dir)
	if err != nil {
		return nil, err
	}
	if err := verify(o, served, false, bodies, nil, rep); err != nil {
		return nil, err
	}
	clock.mark("verify")
	rep.notes = append(rep.notes, fmt.Sprintf("error_share %.4f (%d failed of %d scheduled in all phases, verification included)",
		float64(rep.Failed)/float64(max(1, rep.Attempted)), rep.Failed, rep.Attempted), clock.String())
	return rep, nil
}

// writeTimings records every scheduled request's fate, one JSON line
// each: phase, sequence number, endpoint, due/sent/done offsets (ms from
// the phase start; sent < 0 = never sent), status and error.
func writeTimings(path string, runs []phaseRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, pr := range runs {
		for _, t := range pr.timings {
			sent := -1.0
			if t.Sent >= 0 {
				sent = ms(t.Sent)
			}
			fmt.Fprintf(w, "{\"phase\":%q,\"seq\":%d,\"endpoint\":%q,\"due_ms\":%.3f,\"sent_ms\":%.3f,\"done_ms\":%.3f,\"status\":%d,\"err\":%q}\n",
				pr.phase.Name, pr.phase.Requests[t.Index].Seq, t.Endpoint, ms(t.Due), sent, ms(t.Done), t.Status, t.Err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstFailure describes a phase's first failed request, if any.
func firstFailure(pr phaseRun) string {
	for _, t := range pr.timings {
		if !t.OK() {
			return fmt.Sprintf("; first failure %s: status %d %s", pr.phase.Requests[t.Index].Query.URI(), t.Status, t.Err)
		}
	}
	return ""
}

// repeatedURIs counts scheduled query strings (warm-up included) that
// occur more than once.
func repeatedURIs(s *Schedule) int {
	seen := map[string]bool{}
	n := 0
	for _, q := range s.Warmup {
		if seen[q.URI()] {
			n++
		}
		seen[q.URI()] = true
	}
	for _, ph := range s.Phases {
		for _, rq := range ph.Requests {
			u := rq.Query.URI()
			if seen[u] {
				n++
			}
			seen[u] = true
		}
	}
	return n
}

// verify compares every distinct response body with the oracle for
// the corpus variant its generation was built from, audits the
// generation headers against the published set (behind the front),
// and runs the Table 1 anchor check. Every response that carried a
// body failing a check is added to rep.Failed.
func verify(o *oracle, c *cluster, fleet bool, bodies *bodyStore, pubs []publication, rep *report) error {
	rep.problems = append(rep.problems, bodies.problems...)
	// Which corpus variant each published generation serves.
	type genID struct {
		digest  string
		variant int
	}
	gens := map[int64]genID{c.initialGen: {c.initialDigest, 0}}
	for _, p := range pubs {
		gens[p.gen] = genID{p.digest, p.variant}
	}
	type item struct {
		s       *seenBody
		variant int
	}
	var items []item
	need := map[string]oracleNeed{}
	keys := make([]string, 0, len(bodies.first))
	for k := range bodies.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := bodies.first[k]
		it := item{s: s}
		switch g, ok := gens[s.gen]; {
		case !fleet:
			it.variant = 0
		case ok && g.digest == s.digest:
			it.variant = g.variant
		default:
			rep.fail("%s: served generation %d digest %.12s that the primary never published", s.q.URI(), s.gen, s.digest)
			rep.Failed += s.n
			continue
		}
		need[oracleKey(s.q, it.variant)] = oracleNeed{s.q, it.variant}
		items = append(items, it)
	}
	def := defaultQuery
	for v := range o.dbs {
		need[oracleKey(def, v)] = oracleNeed{def, v}
	}
	if err := o.prime(need); err != nil {
		return err
	}
	for v := range o.dbs {
		if err := checkAnchor(o.got[oracleKey(def, v)]); err != nil {
			rep.fail("oracle corpus %d: %v", v, err)
		}
	}
	if pc, err := canonBody(epSnapshot, c.prewarm); err != nil {
		rep.fail("default snapshot: %v", err)
	} else if err := checkAnchor(pc); err != nil {
		rep.fail("served default snapshot: %v", err)
	}
	verified := 0
	for _, it := range items {
		got, err := canonBody(it.s.q.Endpoint, it.s.body)
		if err != nil {
			rep.fail("%s: undecodable body: %v", it.s.q.URI(), err)
			rep.Failed += it.s.n
			continue
		}
		if string(got) != string(o.got[oracleKey(it.s.q, it.variant)]) {
			rep.fail("%s (member %q, generation %d): body differs from the oracle", it.s.q.URI(), it.s.replica, it.s.gen)
			rep.Failed += it.s.n
			continue
		}
		verified++
	}
	rep.notes = append(rep.notes, fmt.Sprintf("verified %d distinct bodies against the oracle (%d oracle answers)", verified, len(need)))
	return nil
}

// stageClock notes how long each stage of a run took.
type stageClock struct {
	last  time.Time
	parts []string
}

func newStageClock() *stageClock { return &stageClock{last: time.Now()} }

func (s *stageClock) mark(stage string) {
	now := time.Now()
	s.parts = append(s.parts, fmt.Sprintf("%s %.1fs", stage, now.Sub(s.last).Seconds()))
	s.last = now
}

func (s *stageClock) String() string { return "stages: " + strings.Join(s.parts, ", ") }
