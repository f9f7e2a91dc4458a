package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled request must inflate the latency of the requests scheduled
// behind it: latency runs from the due time, not from the moment the
// generator finally sent the request (the coordinated-omission check).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
	}))
	defer srv.Close()

	const n = 20
	dues := make([]time.Duration, n)
	eps := make([]string, n)
	for i := range dues {
		dues[i] = time.Duration(i) * 10 * time.Millisecond
	}
	client := loadClient(1)
	ts := runOpenLoop(context.Background(), time.Now(), dues, eps, 1, time.Minute, func(int) Outcome {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return Outcome{Err: err.Error()}
		}
		resp.Body.Close()
		return Outcome{Status: resp.StatusCode}
	})
	// Request 5 was due 50ms in but could only go out once the stall
	// ended near 300ms: its latency carries that wait, although the
	// server answered it at once.
	r5 := ts[5]
	if !r5.OK() {
		t.Fatalf("request 5 failed: %+v", r5)
	}
	if lat := r5.Latency(); lat < 200*time.Millisecond {
		t.Errorf("request 5 latency %v: the stall was not charged to it", lat)
	}
	if svc := r5.Done - r5.Sent; svc > 100*time.Millisecond {
		t.Errorf("request 5 service time %v: the server itself should have been fast", svc)
	}
	if lag := r5.Lag(); lag < 200*time.Millisecond {
		t.Errorf("request 5 lag %v: the generator should report running late", lag)
	}
	// Latency shrinks again once the backlog has drained.
	if last := ts[n-1]; last.Latency() > r5.Latency() {
		t.Errorf("last request latency %v > request 5's %v: backlog never drained", last.Latency(), r5.Latency())
	}
}

func TestRunOpenLoopLeavesLateRequestsUnsent(t *testing.T) {
	dues := []time.Duration{0, 0, 0}
	ts := runOpenLoop(context.Background(), time.Now(), dues, make([]string, 3), 1, 30*time.Millisecond, func(int) Outcome {
		time.Sleep(50 * time.Millisecond)
		return Outcome{Status: 200}
	})
	if !ts[0].OK() {
		t.Fatalf("first request: %+v", ts[0])
	}
	for _, tm := range ts[1:] {
		if tm.OK() || tm.Sent >= 0 || tm.Err != "never sent" {
			t.Errorf("request %d past the cutoff: %+v", tm.Index, tm)
		}
	}
}

// The reported tail percentile always leaves at least ten samples
// beyond it, tops out at p99, and never drops below the median.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.90}, {40, 0.75}, {15, 0.5}, {0, 0.5}} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 3000; n += 7 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		v := quantile(vals, tailQuantile(n, 0.99))
		if beyond := n - 1 - int(v); beyond < minBeyond {
			t.Fatalf("n=%d: only %d samples beyond the reported tail", n, beyond)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	var ts []Timing
	for i := 0; i < 100; i++ {
		tm := Timing{Due: 0, Sent: 0, Done: time.Millisecond, Outcome: Outcome{Status: 200}}
		if i < 15 {
			tm.Outcome = Outcome{Status: 503}
		}
		ts = append(ts, tm)
	}
	l := summarize(ts)
	if !math.IsInf(l.Tail, 1) || l.Failed != 15 || l.ErrorShare() != 0.15 {
		t.Errorf("summary %+v: 15 failures out of 100 must put the p90 tail at +Inf", l)
	}
	if l.P50 != 1 {
		t.Errorf("p50 = %v ms, want 1", l.P50)
	}
}

// A span's self time is its duration minus the union of its children's
// intervals inside it: overlapping children count once, time outside
// the parent not at all.
func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("selfTime = %d, want 60 (children cover 10–40 and 90–100)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	nested := []Span{{Start: 0, End: 100}, {Start: 5, End: 50}}
	if got := selfTime(parent, nested); got != 0 {
		t.Errorf("selfTime under a covering child = %d, want 0", got)
	}
}

// rung builds a 160-request rung (budget 10/160) with the given share
// of requests over the SLO.
func rung(rate, miss, errShare, lagGrowth float64) Rung {
	return Rung{Rate: rate, Goodput: rate, Miss: miss, LagGrowthMs: lagGrowth, SLOms: 100,
		Lat: Latencies{N: 160, Failed: int(errShare * 160), TailQ: tailQuantile(160, 0.99)}}
}

func TestRungMeets(t *testing.T) {
	b := 10.0 / 160
	for _, c := range []struct {
		name string
		r    Rung
		want bool
	}{
		{"inside", rung(10, 0, 0, 0), true},
		{"at the limits", rung(10, b, 0.01, 50), true},
		{"tail", rung(10, b+0.01, 0, 0), false},
		{"error budget", rung(10, 0.03, 0.03, 0), false},
		{"growing backlog", rung(10, 0, 0, 51), false},
	} {
		if got := c.r.Meets(); got != c.want {
			t.Errorf("%s: Meets = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIsotonic(t *testing.T) {
	got := isotonic([]float64{0, 0.2, 0, 0.1, 0.5, 0.3, 1})
	want := []float64{0, 0.1, 0.1, 0.1, 0.4, 0.4, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("isotonic = %v, want %v", got, want)
		}
	}
}

// max_rps_at_slo: the ladder's miss shares made monotone in rate, and
// the rate interpolated to where they cross the budget (10/160 here).
func TestMaxRPS(t *testing.T) {
	for _, c := range []struct {
		name  string
		rungs []Rung
		want  float64
		ok    bool
	}{
		{"all meet", []Rung{rung(10, 0, 0, 0), rung(20, 0.01, 0, 0), rung(30, 0.05, 0, 0)}, 30, true},
		{"crossing", []Rung{rung(10, 0, 0, 0), rung(20, 0.025, 0, 0), rung(30, 0.1, 0, 0)}, 25, true},
		{"a noisy miss below is pooled with its neighbours",
			[]Rung{rung(10, 0, 0, 0), rung(20, 0.1, 0, 0), rung(30, 0, 0, 0), rung(40, 0.5, 0, 0)}, 30 + 10*0.0125/0.45, true},
		{"saturated by errors", []Rung{rung(10, 0, 0, 0), rung(20, 0.02, 0.02, 0)}, 10 + 10*0.0625, true},
		{"saturated by backlog", []Rung{rung(10, 0, 0, 0), rung(20, 0, 0, 500)}, 10 + 10*0.0625, true},
		{"a passing stall below does not count as saturation",
			[]Rung{rung(10, 0.03, 0, 500), rung(20, 0, 0, 0), rung(30, 0, 0, 500), rung(40, 0, 0, 500)}, 20 + 10*(0.0625-0.015)/(1-0.015), true},
		{"bottom over budget scales down", []Rung{rung(10, 0.5, 0, 0), rung(20, 0.9, 0, 0)}, 10 * 0.0625 / 0.5, false},
	} {
		got, ok := maxRPS(c.rungs)
		if ok != c.ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRPS = (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestRungOf(t *testing.T) {
	var ts []Timing
	for i := 0; i < 40; i++ {
		due := time.Duration(i) * 25 * time.Millisecond
		lag := time.Duration(0)
		if i >= 30 {
			lag = time.Duration(i-29) * 20 * time.Millisecond
		}
		ts = append(ts, Timing{Due: due, Sent: due + lag, Done: due + lag + 5*time.Millisecond, Outcome: Outcome{Status: 200}})
	}
	r := rungOf(40, 100, ts)
	if !r.saturated() {
		t.Errorf("lag growth %v ms: a backlog building in the last quarter must show", r.LagGrowthMs)
	}
	// Requests 34..39 took 105–205 ms from their due times: 6 of 40
	// over the SLO.
	if r.Miss != 6.0/40 {
		t.Errorf("miss share %v, want %v", r.Miss, 6.0/40)
	}
	// 40 successes from the first due time (0) to the last completion.
	want := 40 / (ts[39].Done - ts[0].Due).Seconds()
	if math.Abs(r.Goodput-want) > 1e-9 {
		t.Errorf("goodput %v, want %v", r.Goodput, want)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := makeSchedule(w, 7, 20), makeSchedule(w, 7, 20)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", name)
		}
		if c := makeSchedule(w, 8, 20); reflect.DeepEqual(a.Phases, c.Phases) {
			t.Errorf("%s: different seeds gave the same schedule", name)
		}
		if got, want := len(a.Phases[0].Requests), int(math.Round(w.Rate*20*fixedShare)); got != want {
			t.Errorf("%s: fixed phase has %d requests, want %d", name, got, want)
		}
		for _, ph := range a.Phases {
			for i := 1; i < len(ph.Requests); i++ {
				if ph.Requests[i].DueMs < ph.Requests[i-1].DueMs || ph.Requests[i].DueMs > ph.Seconds*1e3 {
					t.Fatalf("%s %s: due times out of order or outside the phase", name, ph.Name)
				}
			}
		}
	}
}

func TestUniqueSweepNeverRepeats(t *testing.T) {
	s := makeSchedule(workloads["unique-sweep"], 3, 60) // the longest run allowed
	if n := repeatedURIs(s); n != 0 {
		t.Fatalf("unique-sweep repeated %d query strings", n)
	}
	seen := map[string]bool{}
	for _, ph := range s.Phases {
		for _, rq := range ph.Requests {
			seen[rq.Query.Endpoint] = true
		}
	}
	if len(seen) != len(endpoints) {
		t.Errorf("unique-sweep covers endpoints %v, want all of %v", seen, endpoints)
	}
	hot := makeSchedule(workloads["hot-repeat"], 3, 20)
	if repeatedURIs(hot) == 0 {
		t.Errorf("hot-repeat never repeats a query")
	}
}

func TestParseWatch(t *testing.T) {
	good := "id: 1.0\nevent: hello\ndata: {\"diffs\":2}\n\n" +
		"id: 1.1\nevent: snapshot\ndata: {\"date\":\"2014-01-01\",\"connected\":false,\"active_licenses\":3}\n\n" +
		"id: 1.2\nevent: diff\ndata: {\"date\":\"2015-02-01\",\"connected\":false,\"active_licenses\":9}\n\n" +
		"id: 1.3\nevent: diff\ndata: {\"date\":\"2016-03-01\",\"connected\":true,\"latency_us\":3961.7,\"active_licenses\":12}\n\n" +
		"id: 1.4\nevent: eof\ndata: {}\n\n"
	c, err := parseWatch([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	want := watchCanon{Diffs: 2, Final: evoPoint{Date: "2016-03-01", Connected: true, Latency: 3961.7, Active: 12}}
	if c != want {
		t.Errorf("parseWatch = %+v, want %+v", c, want)
	}
	for name, body := range map[string]string{
		"missing eof":    good[:len(good)-len("id: 1.4\nevent: eof\ndata: {}\n\n")],
		"gap in seq":     strings.Replace(good, "id: 1.3", "id: 1.7", 1),
		"diffs mismatch": strings.Replace(good, `{"diffs":2}`, `{"diffs":3}`, 1),
	} {
		if _, err := parseWatch([]byte(body)); err == nil {
			t.Errorf("%s: parseWatch accepted a broken stream", name)
		}
	}
}

func TestCheckAnchor(t *testing.T) {
	if err := checkAnchor([]byte(`{"networks":[{"licensee":"New Line Networks","latency_us":3961.7}]}`)); err != nil {
		t.Errorf("anchor rejected: %v", err)
	}
	if err := checkAnchor([]byte(`{"networks":[{"licensee":"New Line Networks","latency_us":3990.1}]}`)); err == nil {
		t.Errorf("anchor accepted a wrong latency")
	}
	if err := checkAnchor([]byte(`{"networks":[]}`)); err == nil {
		t.Errorf("anchor accepted an empty table")
	}
}

// A body that differs from the oracle fails every response that
// carried it, not just the one distinct body.
func TestVerifyCountsEveryMismatchedResponse(t *testing.T) {
	q := Query{Endpoint: epSnapshot, Date: "2019-06-01", Path: "CME-NY4"}
	bodies := newBodyStore()
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}}
	served := []byte(`{"networks":[{"licensee":"A","latency_us":4000}]}`)
	for i := 0; i < 3; i++ {
		if bodies.observe(q, resp, served) {
			t.Fatalf("response %d rejected inline", i)
		}
	}
	o := &oracle{got: map[string][]byte{}}
	for v := range o.dbs {
		o.got[oracleKey(defaultQuery, v)] = []byte(`{}`)
	}
	want, err := canonBody(epSnapshot, []byte(`{"networks":[{"licensee":"A","latency_us":3999}]}`))
	if err != nil {
		t.Fatal(err)
	}
	o.got[oracleKey(q, 0)] = want
	rep := &report{}
	if err := verify(o, &cluster{}, false, bodies, nil, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 3 {
		t.Errorf("failed = %d, want 3 (every response carrying the mismatched body)", rep.Failed)
	}
	mismatch := false
	for _, p := range rep.problems {
		mismatch = mismatch || strings.Contains(p, "differs from the oracle")
	}
	if !mismatch {
		t.Errorf("no oracle mismatch reported in %q", rep.problems)
	}
}

// hot-repeat gives every endpoint the same share of a phase, skewed
// towards the endpoint's first catalogue entries.
func TestHotRepeatEndpointShares(t *testing.T) {
	s := makeSchedule(workloads["hot-repeat"], 5, 40)
	byEP, byURI := map[string]int{}, map[string]int{}
	for _, rq := range s.Phases[0].Requests {
		byEP[rq.Query.Endpoint]++
		byURI[rq.Query.URI()]++
	}
	n := len(s.Phases[0].Requests)
	for _, ep := range endpoints {
		if d := byEP[ep] - n/len(endpoints); d < -1 || d > 1 {
			t.Errorf("%s has %d of %d requests, want %d±1", ep, byEP[ep], n, n/len(endpoints))
		}
	}
	first := map[string]Query{}
	for _, q := range catalogue() {
		if _, ok := first[q.Endpoint]; !ok {
			first[q.Endpoint] = q
		}
	}
	for ep, q := range first {
		if byURI[q.URI()]*4 < byEP[ep] {
			t.Errorf("%s: top entry has %d of %d requests, want a Zipf head", ep, byURI[q.URI()], byEP[ep])
		}
	}
}
