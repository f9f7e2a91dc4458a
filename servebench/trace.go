package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/serve"
	"hftnetview/internal/sites"
	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

// recorder keeps one pass's spans in memory. A nil recorder records
// nothing, which is how the untraced replay runs the same code.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts a span; close records it.
func (r *recorder) open(name string, req, parent int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{ID: r.next.Add(1), Parent: parent, Req: req, Name: name, Start: r.now()}
}

func (r *recorder) close(s Span) {
	if r == nil {
		return
	}
	s.End = r.now()
	r.add(s)
}

func (r *recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far; background callers (the
// front's probes) may still be adding more.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups spans by name, and children indexes them by parent.
func (r *recorder) index() (byName map[string][]Span, children map[int64][]Span) {
	byName, children = map[string][]Span{}, map[int64][]Span{}
	for _, s := range r.snapshot() {
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	return byName, children
}

// meanSelfMs is the mean self time of the named spans, in ms.
func meanSelfMs(spans []Span, children map[int64][]Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += selfTime(s, children[s.ID])
	}
	return float64(sum) / float64(len(spans)) / 1e6
}

func meanDurMs(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.Dur()
	}
	return float64(sum) / float64(len(spans)) / 1e6
}

// tracedProvider is the span-recording core.SnapshotProvider over the
// engine: every Snapshot (and so every Snapshots batch element, the
// clone included) and every EvolutionSweep is a span under the
// analysis call that asked for it.
type tracedProvider struct {
	ctx    context.Context
	eng    *engine.Engine
	rec    *recorder
	req    int64
	parent int64 // the open analysis span
}

func (p *tracedProvider) DB() *uls.Database { return p.eng.DB() }

func (p *tracedProvider) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	s := p.rec.open("engine.snapshot", p.req, p.parent)
	if len(req.Licensees) > 1 {
		s.Note = "union"
	}
	n, err := p.eng.SnapshotContext(p.ctx, req)
	p.rec.close(s)
	return n, err
}

func (p *tracedProvider) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	return core.SnapshotsParallel(p, reqs)
}

func (p *tracedProvider) EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	s := p.rec.open("engine.sweep", p.req, p.parent)
	pts, err := p.eng.EvolutionSweepContext(p.ctx, licensee, path, dates, opts)
	p.rec.close(s)
	return pts, err
}

// traceWriter records when a handler starts encoding its response —
// the last header access before the first body write, since the
// service sets Content-Type right before it encodes — and how many
// bytes it writes.
type traceWriter struct {
	http.ResponseWriter
	rec        *recorder
	lastHeader int64
	encodeAt   int64
	bytes      int
}

func (w *traceWriter) Header() http.Header {
	if w.encodeAt == 0 {
		w.lastHeader = w.rec.now()
	}
	return w.ResponseWriter.Header()
}

func (w *traceWriter) Write(b []byte) (int, error) {
	if w.encodeAt == 0 {
		w.encodeAt = max(w.lastHeader, 1)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *traceWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func seqOf(r *http.Request) int64 {
	n, err := strconv.ParseInt(r.Header.Get("X-Bench-Seq"), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// tracedHandler wraps h in a root span per request, plus an
// encode+write child for JSON responses.
func tracedHandler(rec *recorder, name string, h http.Handler, onRoot func(seq, id int64), replicaNote bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := seqOf(r)
		root := rec.open(name, seq, 0)
		if onRoot != nil {
			onRoot(seq, root.ID)
		}
		tw := &traceWriter{ResponseWriter: w, rec: rec}
		h.ServeHTTP(tw, r)
		end := rec.now()
		if tw.encodeAt > 0 && !strings.HasPrefix(r.URL.Path, "/v1/watch") {
			rec.add(Span{ID: rec.next.Add(1), Parent: root.ID, Req: seq, Name: name + ".encode_write",
				Start: tw.encodeAt, End: end})
		}
		root.Note = strconv.Itoa(tw.bytes)
		if replicaNote {
			root.Note = w.Header().Get("X-Fleet-Replica")
		}
		root.End = end
		rec.add(root)
	})
}

// spanTransport records each outgoing request as a span that ends when
// its body is closed; parentOf names the request and span it serves.
type spanTransport struct {
	base     http.RoundTripper
	rec      *recorder
	name     string
	parentOf func(r *http.Request) (req, parent int64)
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, parent := t.parentOf(r)
	name := t.name
	if req < 0 && t.name == "fleet.attempt" {
		name = "fleet.probe"
	}
	s := t.rec.open(name, req, parent)
	s.Note = r.URL.Host + r.URL.Path
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.rec.close(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.rec.close(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// timedSetup is one in-process set-up: ingest, persist, reload.
type timedSetup struct {
	ingest, save, load float64 // ms
	db                 *uls.Database
	gi                 *store.GenInfo
}

// ingestAndSave reads a bulk file the way the service does and saves it
// as a new generation of st, timing both.
func ingestAndSave(st *store.Store, path, source string) (*timedSetup, error) {
	t := &timedSetup{}
	t0 := time.Now()
	db, err := readCorpus(path)
	if err != nil {
		return nil, err
	}
	t.ingest = ms(time.Since(t0))
	t0 = time.Now()
	if t.gi, err = st.Save(db, source); err != nil {
		return nil, err
	}
	t.save = ms(time.Since(t0))
	t.db = db
	return t, nil
}

// traced is the --trace 1 run: in-process passes over the same seeded
// fixed-phase traffic, each layer entered through its public calls.
func (r *run) traced(ctx context.Context) (*report, error) {
	rep := &report{}
	clock := newStageClock()
	if _, err := os.Stat(corpusFile(r.dir, 0)); err != nil {
		if err := writeCorpora(r.dir, r.sched.Seed); err != nil {
			return nil, err
		}
	}
	o, err := newOracle(r.dir)
	if err != nil {
		return nil, err
	}
	// Set-up, timed per layer: bulk ingest, store save, store load.
	var ingests, saves, loads []float64
	var base *timedSetup
	for k := 0; k < setupReps; k++ {
		st, err := store.Open(filepath.Join(r.dir, fmt.Sprintf("trace-store-%d", k)))
		if err != nil {
			return nil, err
		}
		ts, err := ingestAndSave(st, corpusFile(r.dir, 0), "variant 0")
		if err != nil {
			st.Close()
			return nil, err
		}
		t0 := time.Now()
		if _, _, _, err := st.Load(); err != nil {
			st.Close()
			return nil, err
		}
		ts.load = ms(time.Since(t0))
		ingests, saves, loads = append(ingests, ts.ingest), append(saves, ts.save), append(loads, ts.load)
		st.Close()
		base = ts
	}
	clock.mark("setup")

	// The passes replay the first half of the fixed phase.
	full := r.sched.Phases[0]
	fixed := Phase{Name: full.Name, Rate: full.Rate, Seconds: full.Seconds / 2}
	for _, rq := range full.Requests {
		if rq.DueMs < fixed.Seconds*1e3 {
			fixed.Requests = append(fixed.Requests, rq)
		}
	}
	sched := *r.sched
	sched.Phases = []Phase{fixed}
	r.sched = &sched
	dues := make([]time.Duration, len(fixed.Requests))
	eps := make([]string, len(fixed.Requests))
	for i, rq := range fixed.Requests {
		dues[i] = time.Duration(rq.DueMs * float64(time.Millisecond))
		eps[i] = rq.Query.Endpoint
	}
	window := time.Duration(2 * fixed.Seconds * float64(time.Second))

	// Pass 1: serve.Server.Handler() behind a loopback listener.
	rec1 := newRecorder()
	srv := serve.New(serve.Config{})
	srv.SetCorpus(base.db, "servebench")
	url, closeSrv, err := listen(tracedHandler(rec1, "serve.handler", srv.Handler(), nil, false))
	if err != nil {
		return nil, err
	}
	bodies := newBodyStore()
	send := sender(ctx, loadClient(workers), url, bodies)
	c1 := &cluster{}
	if c1.prewarm, err = warmWithDefault(ctx, r.sched.Warmup, send, bodies); err != nil {
		closeSrv()
		return nil, err
	}
	rec1.reset()
	t1 := runOpenLoop(ctx, time.Now().Add(10*time.Millisecond), dues, eps, workers, window, func(i int) Outcome {
		return send(fixed.Requests[i].Query, fixed.Requests[i].Seq)
	})
	closeSrv()
	clock.mark("pass 1")
	if err := verify(o, c1, false, bodies, nil, rep); err != nil {
		return nil, err
	}
	if err := rec1.write(filepath.Join(r.dir, "spans-pass1-serve.jsonl")); err != nil {
		return nil, err
	}

	// Pass 2: the same requests through the handlers' public calls, on
	// their schedule.
	rec2 := newRecorder()
	_, es, err := r.replay(ctx, o, rec2, dues, eps, window, rep)
	if err != nil {
		return nil, err
	}
	// Tracing overhead: the same requests back to back, untraced and
	// traced in alternation (ABAB), each over a fresh warmed engine.
	var tracedMs, untracedMs float64
	backToBack := make([]time.Duration, len(dues))
	for k := 0; k < 4; k++ {
		var rec *recorder
		if k%2 == 1 {
			rec = newRecorder()
		}
		ts, _, err := r.replay(ctx, o, rec, backToBack, eps, window, rep)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			tracedMs += serviceMs(ts)
		} else {
			untracedMs += serviceMs(ts)
		}
	}
	if err := rec2.write(filepath.Join(r.dir, "spans-pass2-layers.jsonl")); err != nil {
		return nil, err
	}
	clock.mark("pass 2")

	// Pass 3 (hot-repeat): front, pull replica and primary
	// in-process, under corpus churn.
	fm := map[string]float64{}
	if r.w.FleetPass {
		var fsaves, fingests []float64
		if fm, fsaves, fingests, err = r.fleetPass(ctx, o, dues, eps, window, rep); err != nil {
			return nil, err
		}
		saves, ingests = append(saves, fsaves...), append(ingests, fingests...)
		clock.mark("pass 3")
	}

	// Per-layer metrics.
	by1, _ := rec1.index()
	rep.set("serve.handler_ms", meanDurMs(by1["serve.handler"]), "ms")
	rep.set("serve.encode_write_ms", meanDurMs(by1["serve.handler.encode_write"]), "ms")
	var bytesSum float64
	for _, s := range by1["serve.handler"] {
		n, _ := strconv.Atoi(s.Note)
		bytesSum += float64(n)
	}
	rep.set("serve.response_bytes", bytesSum/float64(max(1, len(by1["serve.handler"]))), "B")

	by2, ch2 := rec2.index()
	lookups := float64(max(1, es.Hits+es.Misses+es.Coalesced))
	rep.set("engine.hit_ratio", float64(es.Hits)/lookups, "ratio")
	rep.set("engine.delta_hit_ratio", float64(es.DeltaHits)/lookups, "ratio")
	rep.set("engine.coalesced", float64(es.Coalesced), "count")
	rep.set("engine.rebuilds", float64(es.Rebuilds), "count")
	rep.set("engine.events_replayed", float64(es.EventsReplayed), "count")
	rep.set("engine.invalidations", float64(es.Invalidations), "count")
	roots := by2["serve.request"]
	perReq := map[int64][]Span{}
	for _, s := range by2["engine.snapshot"] {
		perReq[s.Req] = append(perReq[s.Req], s)
	}
	var engMs, snaps float64
	for _, root := range roots {
		engMs += float64(covered(root.Start, root.End, perReq[root.Req])) / 1e6
		snaps += float64(len(perReq[root.Req]))
	}
	n2 := float64(max(1, len(roots)))
	rep.set("engine.snapshot_ms", engMs/n2, "ms")
	rep.set("engine.snapshots_per_request", snaps/n2, "count")
	rep.set("engine.sweep_ms", meanDurMs(by2["engine.sweep"]), "ms")
	rep.set("core.connected_self_ms", meanSelfMs(by2["core.connected"], ch2), "ms")
	rep.set("core.rank_self_ms", meanSelfMs(by2["core.rank"], ch2), "ms")
	rep.set("core.evolution_self_ms", meanSelfMs(by2["core.evolution"], ch2), "ms")
	rep.set("core.watch_self_ms", meanSelfMs(by2["core.watch"], ch2), "ms")
	rep.set("entity.pairs_self_ms", meanSelfMs(by2["entity.pairs"], ch2), "ms")
	unions := 0
	for _, s := range by2["engine.snapshot"] {
		if s.Note == "union" {
			unions++
		}
	}
	rep.set("entity.union_snapshots", float64(unions)/float64(max(1, len(by2["entity.pairs"]))), "count")
	rep.set("trace.overhead_share", tracedMs/untracedMs-1, "ratio")

	for _, name := range []string{"fleet.front_self_ms", "fleet.attempts_per_request", "fleet.retry_share",
		"fleet.hedge_share", "fleet.hedge_win_share", "fleet.pull_ms", "fleet.pull_resolve_ms",
		"fleet.pull_fetch_ms", "fleet.pull_install_ms", "fleet.wire_bytes_per_gen", "fleet.reused_segment_share"} {
		unit := "ms"
		switch {
		case strings.HasSuffix(name, "_share"):
			unit = "ratio"
		case strings.HasSuffix(name, "_per_request"):
			unit = "count"
		case strings.HasSuffix(name, "_per_gen"):
			unit = "B"
		}
		rep.set(name, fm[name], unit)
	}
	rep.set("store.save_ms", median(saves), "ms")
	rep.set("store.load_ms", median(loads), "ms")
	rep.set("uls.ingest_ms", median(ingests), "ms")

	// The run's own validity, from pass 1's open loop.
	lags := []float64{}
	var sent, ok, failed, bad int
	for _, t := range t1 {
		if t.Sent >= 0 {
			sent++
			lags = append(lags, ms(t.Lag()))
		}
		if t.OK() {
			ok++
		} else {
			failed++
		}
		if t.Bad {
			bad++
		}
	}
	sortedLags := append([]float64(nil), lags...)
	sort.Float64s(sortedLags)
	rep.set("load.send_lag_p99_ms", quantile(sortedLags, tailQuantile(len(sortedLags), 0.99)), "ms")
	rep.set("load.sent", float64(sent), "count")
	rep.set("load.ok", float64(ok), "count")
	rep.set("load.failed", float64(failed), "count")
	rep.set("load.verify_failed", float64(bad), "count")
	rep.Attempted += len(t1)
	rep.Failed += failed

	if r.w.Name == "hot-repeat" && float64(es.Hits)/lookups < 0.99 {
		rep.fail("hot-repeat engine hit ratio %.4f < 0.99 after warm-up", float64(es.Hits)/lookups)
	}
	if r.w.Name == "unique-sweep" {
		if n := repeatedURIs(r.sched); n > 0 {
			rep.fail("unique-sweep schedules %d repeated query strings", n)
		}
	}
	clock.mark("metrics")
	rep.notes = append(rep.notes, clock.String())
	return rep, nil
}

// serviceMs is the mean send-to-done time of the successful timings.
func serviceMs(ts []Timing) float64 {
	var sum float64
	n := 0
	for _, t := range ts {
		if t.OK() {
			sum += ms(t.Done - t.Sent)
			n++
		}
	}
	return sum / float64(max(1, n))
}

// replay is pass 2: each request goes through serve.Limiter.Acquire,
// serve.Breaker.Allow and the analysis calls its handler makes, over a
// fresh engine (warmed with the workload's warm-up set). With rec nil
// nothing is recorded. It returns the timings and the engine counter
// deltas after warm-up.
func (r *run) replay(ctx context.Context, o *oracle, rec *recorder, dues []time.Duration, eps []string,
	window time.Duration, rep *report) ([]Timing, engine.Stats, error) {
	limiter := serve.NewLimiter(64, 100*time.Millisecond)
	breaker := serve.NewBreaker(5, 5*time.Second)
	eng := engine.New(o.dbs[0], engine.WithRebuildTimeout(10*time.Second))
	for _, q := range r.sched.Warmup {
		if _, err := answer(&tracedProvider{ctx: ctx, eng: eng}, q, bare, true); err != nil {
			return nil, engine.Stats{}, err
		}
	}
	warmStats := eng.Stats()

	var mu sync.Mutex
	answers := map[string][]byte{}
	fixed := r.sched.Phases[0]
	ts := runOpenLoop(ctx, time.Now().Add(10*time.Millisecond), dues, eps, workers, window, func(i int) Outcome {
		rq := fixed.Requests[i]
		seq := int64(rq.Seq)
		root := rec.open("serve.request", seq, 0)
		defer rec.close(root)
		a := rec.open("serve.admission", seq, root.ID)
		err := limiter.Acquire(ctx)
		rec.close(a)
		if err != nil {
			return Outcome{Status: http.StatusServiceUnavailable}
		}
		defer limiter.Release()
		b := rec.open("serve.breaker", seq, root.ID)
		done, err := breaker.Allow()
		rec.close(b)
		if err != nil {
			return Outcome{Status: http.StatusServiceUnavailable}
		}
		tp := &tracedProvider{ctx: ctx, eng: eng, rec: rec, req: seq}
		wrap := func(name string, f func() error) error {
			s := rec.open(name, seq, root.ID)
			tp.parent = s.ID
			err := f()
			rec.close(s)
			return err
		}
		got, err := answer(tp, rq.Query, wrap, true)
		done(err != nil)
		if err != nil {
			return Outcome{Status: http.StatusInternalServerError, Err: err.Error()}
		}
		key := oracleKey(rq.Query, 0)
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := answers[key]; ok && string(prev) != string(got) {
			return Outcome{Status: 200, Bytes: len(got), Bad: true}
		}
		answers[key] = got
		return Outcome{Status: 200, Bytes: len(got)}
	})

	// Engine counters after warm-up.
	es := eng.Stats()
	es.Hits -= warmStats.Hits
	es.Misses -= warmStats.Misses
	es.Coalesced -= warmStats.Coalesced
	es.Rebuilds -= warmStats.Rebuilds
	es.DeltaHits -= warmStats.DeltaHits
	es.EventsReplayed -= warmStats.EventsReplayed
	es.Invalidations -= warmStats.Invalidations

	// Every replayed answer must equal the oracle's.
	need := map[string]oracleNeed{}
	for _, rq := range fixed.Requests {
		if k := oracleKey(rq.Query, 0); answers[k] != nil {
			need[k] = oracleNeed{rq.Query, 0}
		}
	}
	if err := o.prime(need); err != nil {
		return nil, es, err
	}
	for k, got := range answers {
		if string(got) != string(o.got[k]) {
			rep.fail("in-process replay of %s differs from the oracle", k)
		}
	}
	for _, t := range ts {
		if t.Bad {
			rep.fail("in-process replay gave differing answers for one query")
			break
		}
	}
	return ts, es, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// defaultQuery is the zero-parameter /v1/snapshot: Table 1 as of the
// paper snapshot date on CME–NY4.
var defaultQuery = Query{Endpoint: epSnapshot, Date: "2020-04-01", Path: "CME-NY4"}

// warmWithDefault sends the default snapshot and the warm-up set,
// returning the default snapshot's body for the anchor check.
func warmWithDefault(ctx context.Context, qs []Query, send func(q Query, seq int) Outcome, bodies *bodyStore) ([]byte, error) {
	if err := warm(ctx, append([]Query{defaultQuery}, qs...), send); err != nil {
		return nil, err
	}
	bodies.mu.Lock()
	defer bodies.mu.Unlock()
	for _, sb := range bodies.first {
		if sb.q == defaultQuery {
			return sb.body, nil
		}
	}
	return nil, fmt.Errorf("no default snapshot body")
}
