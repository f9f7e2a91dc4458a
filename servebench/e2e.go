package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/uls"
)

// setupReps is how many times a run sets the cluster up: setupBefore
// times before the measured window (the last of those serves it) and
// the rest after it, so a passing burst of host load meets only some
// of them. setup_s is the median.
const (
	setupReps   = 9
	setupBefore = 5
)

// cluster is what the benchmark serves from: a live hftserve
// (end-to-end runs only), the store generation and digest it booted
// with, and its default snapshot body.
type cluster struct {
	primary       *proc
	initialGen    int64
	initialDigest string
	prewarm       []byte
}

func (c *cluster) stop() {
	if c != nil {
		c.primary.stop()
	}
}

// run is one benchmark invocation's context.
type run struct {
	w     Workload
	sched *Schedule
	dir   string // output directory of this run
	bin   string // directory holding hftserve
}

// setup generates the corpora, launches hftserve and waits until it
// is ready: the corpus persisted as a store generation and the default
// snapshot prewarmed.
func (r *run) setup(ctx context.Context, rep int) (*cluster, time.Duration, error) {
	t0 := time.Now()
	if err := writeCorpora(r.dir, r.sched.Seed); err != nil {
		return nil, 0, err
	}
	c := &cluster{}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	p, err := launch(r.dir, fmt.Sprintf("primary-%d", rep), filepath.Join(r.bin, "hftserve"),
		"-bulk", corpusFile(r.dir, 0), "-store-dir", filepath.Join(r.dir, fmt.Sprintf("store-primary-%d", rep)))
	if err != nil {
		return fail(err)
	}
	c.primary = p
	var pr readyz
	err = waitFor(ctx, "primary ready and persisted", 60*time.Second, []*proc{p}, func() bool {
		pr = readyz{}
		code, err := getJSON(p.url+"/readyz", &pr)
		gen, _ := pr.storeGen()
		return err == nil && code == 200 && pr.Ready && gen > 0
	})
	if err != nil {
		return fail(err)
	}
	c.initialGen, c.initialDigest = pr.storeGen()
	resp, err := controlClient.Get(p.url + "/v1/snapshot")
	if err != nil {
		return fail(err)
	}
	c.prewarm, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fail(fmt.Errorf("prewarm: status %d, %v", resp.StatusCode, err))
	}
	return c, time.Since(t0), nil
}

// loadClient is the generator's client: at most workers connections.
func loadClient(workers int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// seenBody is the first 200 body for one response key; every later
// response with the same key must carry identical bytes. n counts the
// responses that carried it.
type seenBody struct {
	q       Query
	body    []byte
	gen     int64
	digest  string
	replica string
	n       int
}

// bodyStore collects response bodies for verification after the
// timed window, and records problems found inline.
type bodyStore struct {
	mu       sync.Mutex
	first    map[string]*seenBody
	problems []string
}

func newBodyStore() *bodyStore { return &bodyStore{first: map[string]*seenBody{}} }

func (b *bodyStore) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 50 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// observe audits one response: the status surface is exactly {200,
// 503 + Retry-After}, and a 200 body must equal the first body seen
// for its (query, serving member, store generation).
func (b *bodyStore) observe(q Query, resp *http.Response, body []byte) (bad bool) {
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			b.problem("%s: 503 without Retry-After", q.URI())
			return true
		}
		return false
	default:
		b.problem("%s: status %d outside {200, 503}: %.200s", q.URI(), resp.StatusCode, body)
		return true
	}
	genHdr := resp.Header.Get("X-Corpus-Generation")
	gen, _ := strconv.ParseInt(genHdr, 10, 64)
	replica := resp.Header.Get("X-Fleet-Replica")
	key := q.URI() + "|" + replica + "|" + genHdr
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.first[key]; ok {
		if !bytes.Equal(s.body, body) {
			if len(b.problems) < 50 {
				b.problems = append(b.problems, fmt.Sprintf("%s: body differs between responses of %q generation %s", q.URI(), replica, genHdr))
			}
			return true
		}
		s.n++
		return false
	}
	b.first[key] = &seenBody{q: q, body: body, gen: gen, digest: resp.Header.Get("X-Corpus-Digest"), replica: replica, n: 1}
	return false
}

// sender returns the generator's send function for a target.
func sender(ctx context.Context, client *http.Client, target string, store *bodyStore) func(q Query, seq int) Outcome {
	return func(q Query, seq int) Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+q.URI(), nil)
		if err != nil {
			return Outcome{Err: err.Error()}
		}
		req.Header.Set("X-Bench-Seq", strconv.Itoa(seq))
		resp, err := client.Do(req)
		if err != nil {
			return Outcome{Err: err.Error()}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		o := Outcome{Status: resp.StatusCode, Bytes: len(body)}
		if err != nil {
			o.Err = err.Error()
			return o
		}
		o.Bad = store.observe(q, resp, body)
		return o
	}
}

// phaseRun is one phase's timings and the server CPU time (ms) it
// used.
type phaseRun struct {
	phase   Phase
	timings []Timing
	cpuMs   float64
}

// drive runs the measured timeline from t0: the fixed phase, then the
// ladder rungs until two in a row overrun the SLO (past saturation
// every higher rung does too). Each phase starts on schedule or, if
// the previous one overran, right after it.
func drive(ctx context.Context, t0 time.Time, sched *Schedule, sloMs float64, workers int,
	send func(q Query, seq int) Outcome, cpuMs func() float64) []phaseRun {
	starts := sched.phaseStarts()
	var out []phaseRun
	for i, ph := range sched.Phases {
		start := t0.Add(time.Duration(starts[i] * float64(time.Millisecond)))
		if now := time.Now(); now.After(start) {
			start = now
		}
		dues := make([]time.Duration, len(ph.Requests))
		eps := make([]string, len(ph.Requests))
		for j, rq := range ph.Requests {
			dues[j] = time.Duration(rq.DueMs * float64(time.Millisecond))
			eps[j] = rq.Query.Endpoint
		}
		// A request still unsent two phase lengths after its window
		// closes is dropped: the backlog has run away.
		cutoff := time.Duration(3 * ph.Seconds * float64(time.Second))
		cpu0 := cpuMs()
		ts := runOpenLoop(ctx, start, dues, eps, workers, cutoff, func(j int) Outcome {
			return send(ph.Requests[j].Query, ph.Requests[j].Seq)
		})
		out = append(out, phaseRun{phase: ph, timings: ts, cpuMs: cpuMs() - cpu0})
		if overruns := 0; i > 1 {
			for _, pr := range out[len(out)-2:] {
				if rungOf(pr.phase.Rate, sloMs, pr.timings).overrun() {
					overruns++
				}
			}
			if overruns == 2 {
				break
			}
		}
	}
	return out
}

// warm sends every warm-up query once, two at a time, untimed.
func warm(ctx context.Context, qs []Query, send func(q Query, seq int) Outcome) error {
	dues := make([]time.Duration, len(qs))
	eps := make([]string, len(qs))
	for i, q := range qs {
		eps[i] = q.Endpoint
	}
	for _, t := range runOpenLoop(ctx, time.Now(), dues, eps, workers, time.Minute, func(i int) Outcome { return send(qs[i], -1-i) }) {
		if !t.OK() {
			return fmt.Errorf("warm-up %s failed: status %d %s", qs[t.Index].URI(), t.Status, t.Err)
		}
	}
	return nil
}

// workers is the generator's connection budget: the box's two cores.
const workers = 2

// publication is one corpus generation the primary published.
type publication struct {
	gen     int64
	digest  string
	variant int
}

// oracle computes canonical answers over the uncached DirectProvider,
// two queries at a time, memoized per (query, corpus variant).
type oracle struct {
	dbs [2]*uls.Database
	mu  sync.Mutex
	got map[string][]byte
}

func newOracle(dir string) (*oracle, error) {
	o := &oracle{got: map[string][]byte{}}
	for i := range o.dbs {
		db, err := readCorpus(corpusFile(dir, i))
		if err != nil {
			return nil, err
		}
		o.dbs[i] = db
	}
	return o, nil
}

func oracleKey(q Query, variant int) string { return fmt.Sprintf("%d|%s", variant, q.URI()) }

// oracleNeed is one answer to compute: a query over a corpus variant.
type oracleNeed struct {
	q Query
	v int
}

// prime computes every needed answer in parallel.
func (o *oracle) prime(need map[string]oracleNeed) error {
	keys := make([]string, 0, len(need))
	for k := range need {
		if _, ok := o.got[k]; !ok {
			keys = append(keys, k)
		}
	}
	var wg sync.WaitGroup
	var firstErr error
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o.mu.Lock()
				if next >= len(keys) || firstErr != nil {
					o.mu.Unlock()
					return
				}
				k := keys[next]
				next++
				o.mu.Unlock()
				n := need[k]
				c, err := answer(core.DirectProvider(o.dbs[n.v]), n.q, bare, false)
				o.mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %s: %w", n.q.URI(), err)
				}
				o.got[k] = c
				o.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}
