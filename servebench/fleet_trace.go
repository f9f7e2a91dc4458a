package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/fleet"
	"hftnetview/internal/serve"
	"hftnetview/internal/store"
)

// fleetPass is pass 3 of a traced run: a primary (store + shipper), a
// pull replica and the front, in-process behind loopback listeners,
// with span-recording transports on the front's and the puller's
// clients. The fixed-phase requests go through the front while a
// publish every churnEvery seconds ingests, saves and publishes the
// other corpus variant on the primary and Puller.PullOnce installs it
// on the replica. It returns the fleet.* metrics and the save and
// ingest times of its publishes.
func (r *run) fleetPass(ctx context.Context, o *oracle, dues []time.Duration, eps []string,
	window time.Duration, rep *report) (map[string]float64, []float64, []float64, error) {
	rec := newRecorder()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	pst, err := store.Open(filepath.Join(r.dir, "trace-fleet-primary"))
	if err != nil {
		return nil, nil, nil, err
	}
	closers = append(closers, func() { pst.Close() })
	first, err := ingestAndSave(pst, corpusFile(r.dir, 0), "variant 0")
	if err != nil {
		return nil, nil, nil, err
	}
	psrv := serve.New(serve.Config{})
	psrv.PublishStoreGeneration(first.db, first.gi)
	pURL, closeP, err := listen(fleet.WithShipping(psrv.Handler(), fleet.NewShipper(pst)))
	if err != nil {
		return nil, nil, nil, err
	}
	closers = append(closers, closeP)

	rst, err := store.Open(filepath.Join(r.dir, "trace-fleet-replica"))
	if err != nil {
		return nil, nil, nil, err
	}
	rsrv := serve.New(serve.Config{})
	rsrv.AttachStore(rst)
	closers = append(closers, func() { rsrv.CloseStore() })
	rURL, closeR, err := listen(rsrv.Handler())
	if err != nil {
		return nil, nil, nil, err
	}
	closers = append(closers, closeR)

	// The puller's fetches are children of the open PullOnce span.
	var pullSpan atomic.Int64
	pullClient := &http.Client{Timeout: 30 * time.Second, Transport: &spanTransport{
		base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec, name: "fleet.fetch",
		parentOf: func(*http.Request) (int64, int64) { return -1, pullSpan.Load() },
	}}
	puller := fleet.NewPuller(fleet.PullerConfig{Primary: pURL, Store: rst, Server: rsrv, Client: pullClient})
	pullOnce := func() (float64, error) {
		s := rec.open("fleet.pull", -1, 0)
		pullSpan.Store(s.ID)
		t0 := time.Now()
		ok, err := puller.PullOnce(ctx)
		d := ms(time.Since(t0))
		rec.close(s)
		if err == nil && !ok {
			err = fmt.Errorf("nothing to install")
		}
		return d, err
	}
	if _, err := pullOnce(); err != nil {
		return nil, nil, nil, fmt.Errorf("replica first pull: %w", err)
	}

	// The front's attempts are children of the client request's front
	// span, matched by the forwarded X-Bench-Seq header.
	var frontSpans sync.Map // seq → span id
	names := map[string]string{strings.TrimPrefix(pURL, "http://"): "p", strings.TrimPrefix(rURL, "http://"): "r"}
	frontClient := &http.Client{Timeout: 15 * time.Second, Transport: &spanTransport{
		base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec, name: "fleet.attempt",
		parentOf: func(req *http.Request) (int64, int64) {
			seq := seqOf(req)
			if id, ok := frontSpans.Load(seq); ok && seq >= 0 {
				return seq, id.(int64)
			}
			return -1, 0
		},
	}}
	// The front runs with hftfront's defaults: a 250 ms probe cadence
	// (500 ms per probe) and hedging after 150 ms.
	const hedgeAfter = 150 * time.Millisecond
	front := fleet.NewFront(fleet.FrontConfig{
		Replicas:   []fleet.Replica{{Name: "p", URL: pURL}, {Name: "r", URL: rURL}},
		Primary:    pURL,
		HedgeAfter: hedgeAfter,
		Client:     frontClient,
	})
	go front.Run(ctx)
	fURL, closeF, err := listen(tracedHandler(rec, "fleet.front", front.Handler(),
		func(seq, id int64) { frontSpans.Store(seq, id) }, true))
	if err != nil {
		return nil, nil, nil, err
	}
	closers = append(closers, closeF)
	if err := waitFor(ctx, "front routing to 2 members", 30*time.Second, nil, func() bool {
		var fz readyz
		_, err := getJSON(fURL+"/readyz", &fz)
		return err == nil && fz.Routable == 2
	}); err != nil {
		return nil, nil, nil, err
	}

	bodies := newBodyStore()
	send := sender(ctx, loadClient(workers), fURL, bodies)
	prewarm, err := warmWithDefault(ctx, r.sched.Warmup, send, bodies)
	if err != nil {
		return nil, nil, nil, err
	}
	rec.reset()
	fs0, ps0 := front.Stats(), puller.Status()

	fixed := r.sched.Phases[0]
	start := time.Now().Add(10 * time.Millisecond)
	var pubs []publication
	var saves, ingests, pulls []float64
	var pubErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, atS := range churn(fixed.Seconds) {
			variant := 1 - i%2
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(start.Add(time.Duration(atS * float64(time.Second))))):
			}
			ts, err := ingestAndSave(pst, corpusFile(r.dir, variant), fmt.Sprintf("variant %d", variant))
			if err != nil {
				pubErr = err
				return
			}
			psrv.PublishStoreGeneration(ts.db, ts.gi)
			d, err := pullOnce()
			if err != nil {
				pubErr = fmt.Errorf("replica pull of generation %d: %w", ts.gi.ID, err)
				return
			}
			saves, ingests, pulls = append(saves, ts.save), append(ingests, ts.ingest), append(pulls, d)
			pubs = append(pubs, publication{gen: ts.gi.ID, digest: ts.gi.CorpusSHA256, variant: variant})
		}
	}()
	ts := runOpenLoop(ctx, start, dues, eps, workers, window, func(i int) Outcome {
		return send(fixed.Requests[i].Query, fixed.Requests[i].Seq)
	})
	wg.Wait()
	if pubErr != nil {
		rep.fail("fleet pass: %v", pubErr)
	}
	fs1, ps1 := front.Stats(), puller.Status()
	// A 503 + Retry-After (the front shedding when no member is
	// routable) or a request that timed out counts as failed; a status
	// outside {200, 503 + Retry-After} or a body that fails
	// verification also fails the run (the body store and verify).
	failed := 0
	for _, t := range ts {
		if !t.OK() {
			if failed == 0 {
				rep.notes = append(rep.notes, fmt.Sprintf("fleet pass: first failed request %s: status %d %s",
					fixed.Requests[t.Index].Query.URI(), t.Status, t.Err))
			}
			failed++
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("fleet pass: %d of %d requests failed", failed, len(ts)))
	rep.Attempted += len(ts)
	rep.Failed += failed
	c := &cluster{initialGen: first.gi.ID, initialDigest: first.gi.CorpusSHA256, prewarm: prewarm}
	if err := verify(o, c, true, bodies, pubs, rep); err != nil {
		return nil, nil, nil, err
	}
	if err := rec.write(filepath.Join(r.dir, "spans-pass3-fleet.jsonl")); err != nil {
		return nil, nil, nil, err
	}

	m := map[string]float64{}
	by, children := rec.index()
	var selfSum int64
	fronts, attempts, hedged, wins := 0, 0, 0, 0
	for _, f := range by["fleet.front"] {
		if f.Req < 0 {
			continue
		}
		fronts++
		var kids []Span
		for _, k := range children[f.ID] {
			if k.Name == "fleet.attempt" {
				kids = append(kids, k)
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		selfSum += selfTime(f, kids)
		attempts += len(kids)
		// A hedge is a later attempt launched while an earlier one was
		// still open; it wins when the response names its member.
		for i := 1; i < len(kids); i++ {
			if kids[i].Start-kids[0].Start >= int64(hedgeAfter)*9/10 && kids[0].End > kids[i].Start {
				hedged++
				if names[hostOf(kids[i].Note)] == f.Note {
					wins++
				}
				break
			}
		}
	}
	nf := float64(max(1, fronts))
	m["fleet.front_self_ms"] = float64(selfSum) / nf / 1e6
	m["fleet.attempts_per_request"] = float64(attempts) / nf
	reqs := float64(max(1, fs1.Requests-fs0.Requests))
	m["fleet.retry_share"] = float64(fs1.Retried-fs0.Retried) / reqs
	m["fleet.hedge_share"] = float64(fs1.Hedged-fs0.Hedged) / reqs
	if hedged > 0 {
		m["fleet.hedge_win_share"] = float64(wins) / float64(hedged)
	}
	var resolve, fetch, install float64
	for _, p := range by["fleet.pull"] {
		kids := children[p.ID]
		var res, seg []Span
		for _, k := range kids {
			if strings.Contains(k.Note, "/v1/gen/segment/") {
				seg = append(seg, k)
			} else {
				res = append(res, k)
			}
		}
		resolve += float64(covered(p.Start, p.End, res)) / 1e6
		fetch += float64(covered(p.Start, p.End, seg)) / 1e6
		install += float64(selfTime(p, kids)) / 1e6
	}
	np := float64(max(1, len(by["fleet.pull"])))
	m["fleet.pull_ms"] = mean(pulls)
	m["fleet.pull_resolve_ms"] = resolve / np
	m["fleet.pull_fetch_ms"] = fetch / np
	m["fleet.pull_install_ms"] = install / np
	installs := ps1.Installs - ps0.Installs
	if installs != int64(len(pubs)) || len(pubs) == 0 {
		rep.fail("fleet pass: replica installed %d of %d publishes", installs, len(pubs))
	}
	m["fleet.wire_bytes_per_gen"] = float64(ps1.BytesFetched-ps0.BytesFetched) / float64(max(1, installs))
	if m["fleet.wire_bytes_per_gen"] <= 0 {
		rep.fail("fleet pass: no wire bytes recorded for %d installs", installs)
	}
	segs := ps1.SegmentsFetched - ps0.SegmentsFetched + ps1.ReusedSegments - ps0.ReusedSegments
	m["fleet.reused_segment_share"] = float64(ps1.ReusedSegments-ps0.ReusedSegments) / float64(max(1, segs))
	return m, saves, ingests, nil
}

func hostOf(note string) string {
	host, _, _ := strings.Cut(note, "/")
	return host
}
