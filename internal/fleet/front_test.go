package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestCheckerTransitions: a replica is ejected only after failAfter
// consecutive bad probes and readmitted after a single good one.
func TestCheckerTransitions(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"ready":%v,"generation":{"store_generation":7,"corpus_sha256":"abc","age_seconds":1.5}}`, ready.Load())
	}))
	defer rep.Close()

	c := NewChecker([]Replica{{Name: "r1", URL: rep.URL}}, nil, 2)
	ctx := context.Background()

	if c.Snapshot()[0].Healthy {
		t.Fatal("replica healthy before any probe")
	}
	c.CheckOnce(ctx)
	h := c.Snapshot()[0]
	if !h.Healthy || h.Generation != 7 || h.Digest != "abc" || h.AgeSeconds != 1.5 {
		t.Fatalf("after good probe: %+v", h)
	}

	// One bad probe is a blip, two is an ejection.
	ready.Store(false)
	c.CheckOnce(ctx)
	if !c.Snapshot()[0].Healthy {
		t.Fatal("ejected after a single failed probe")
	}
	c.CheckOnce(ctx)
	if h := c.Snapshot()[0]; h.Healthy || h.LastError == "" {
		t.Fatalf("still healthy after %d failed probes: %+v", 2, h)
	}

	// Recovery is immediate.
	ready.Store(true)
	c.CheckOnce(ctx)
	if h := c.Snapshot()[0]; !h.Healthy || h.LastError != "" {
		t.Fatalf("not readmitted after good probe: %+v", h)
	}
}

// liveReplica pulls the primary's generation and serves it over a real
// listener, returning its base URL.
func liveReplica(t *testing.T, primary string) (string, *Puller) {
	t.Helper()
	p, srv, _ := newReplica(t, primary, nil)
	if installed, err := p.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("replica bootstrap pull = (%v, %v)", installed, err)
	}
	rep := httptest.NewServer(srv.Handler())
	t.Cleanup(rep.Close)
	replicaServers[rep.URL] = rep
	return rep.URL, p
}

// TestFrontRoutingFailoverShed drives the front tier through its three
// regimes: affinity routing while the fleet is whole, transparent
// failover when the key's owner dies, and a jittered 503 shed when
// nobody is left.
func TestFrontRoutingFailoverShed(t *testing.T) {
	_, base, _ := newPrimary(t)
	urls := make(map[string]string)
	for _, name := range []string{"r1", "r2", "r3"} {
		urls[name], _ = liveReplica(t, base)
	}

	f := NewFront(FrontConfig{
		Replicas: []Replica{
			{Name: "r1", URL: urls["r1"]},
			{Name: "r2", URL: urls["r2"]},
			{Name: "r3", URL: urls["r3"]},
		},
		Primary:       base,
		CheckInterval: 20 * time.Millisecond,
		HedgeAfter:    2 * time.Second, // out of the way: this test wants sequential failover
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	waitFor(t, 5*time.Second, "all replicas routable", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, client, front.URL+"/readyz")
		return ready.Routable == 3
	})

	// Affinity: one licensee's queries stick to one replica.
	owner := ""
	for i := 0; i < 5; i++ {
		resp, err := client.Get(front.URL + "/v1/snapshot?licensee=New%20Line%20Networks")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("proxied snapshot = %d", resp.StatusCode)
		}
		rep := resp.Header.Get("X-Fleet-Replica")
		if owner == "" {
			owner = rep
		} else if rep != owner {
			t.Fatalf("licensee routed to %s then %s — affinity broken", owner, rep)
		}
	}
	if owner == "" {
		t.Fatal("no X-Fleet-Replica header on proxied response")
	}

	// Mutations are refused at the front door.
	resp, err := client.Post(front.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST through front = %d, want 405", resp.StatusCode)
	}

	// Kill the owner: the same query must keep answering 200 from a
	// sibling, without waiting for the health checker to notice.
	closeReplicaServer(t, urls[owner])
	resp, err = client.Get(front.URL + "/v1/snapshot?licensee=New%20Line%20Networks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query after owner death = %d, want 200 via failover", resp.StatusCode)
	}
	if rep := resp.Header.Get("X-Fleet-Replica"); rep == owner {
		t.Fatalf("failover response still attributed to dead owner %s", rep)
	}

	// Kill everyone: the front sheds with 503 + Retry-After.
	for name, u := range urls {
		if name != owner {
			closeReplicaServer(t, u)
		}
	}
	waitFor(t, 5*time.Second, "shed regime", func() bool {
		resp, err := client.Get(front.URL + "/v1/snapshot")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""
	})
	if s := f.Stats(); s.Shed == 0 || s.Retried == 0 {
		t.Errorf("front stats after the drill = %+v; want shed and retried both counted", s)
	}
}

// replicaServers tracks httptest servers by URL so tests can kill a
// replica picked at runtime by the ring.
var replicaServers = map[string]*httptest.Server{}

func closeReplicaServer(t *testing.T, url string) {
	t.Helper()
	srv, ok := replicaServers[url]
	if !ok {
		t.Fatalf("no test server registered for %s", url)
	}
	srv.CloseClientConnections()
	srv.Close()
}

// TestFrontStalenessExclusion: a replica whose generation falls more
// than StalenessBound behind the primary is excluded from routing even
// though it answers /readyz, and readmitted once it catches up.
func TestFrontStalenessExclusion(t *testing.T) {
	pst, base, _ := newPrimary(t)
	repURL, puller := liveReplica(t, base)

	f := NewFront(FrontConfig{
		Replicas:       []Replica{{Name: "r1", URL: repURL}},
		Primary:        base,
		StalenessBound: 2,
		CheckInterval:  20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	routable := func() int {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, client, front.URL+"/readyz")
		return ready.Routable
	}
	waitFor(t, 5*time.Second, "replica routable", func() bool { return routable() == 1 })

	// Push the primary 3 generations ahead; the replica (not pulling)
	// exceeds the bound and must drop out of rotation.
	for i := 0; i < 3; i++ {
		if _, err := pst.Save(corpus(t), fmt.Sprintf("update %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "stale replica excluded", func() bool { return routable() == 0 })
	resp, err := client.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against all-stale fleet = %d, want 503", resp.StatusCode)
	}

	// The replica catches up and rejoins.
	if installed, err := puller.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("catch-up pull = (%v, %v)", installed, err)
	}
	waitFor(t, 5*time.Second, "caught-up replica readmitted", func() bool { return routable() == 1 })
}

// TestFrontHedging: a slow query is hedged to the next replica after
// HedgeAfter and the fast answer wins; a slow bulk segment fetch is
// never hedged — its one attempt runs until it answers.
func TestFrontHedging(t *testing.T) {
	const (
		hedgeAfter = 30 * time.Millisecond
		slowFor    = 400 * time.Millisecond
	)
	var slow atomic.Value // name of the replica that stalls /v1/ reads
	slow.Store("")
	hits := map[string]*atomic.Int64{"r1": {}, "r2": {}}
	fake := func(name string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				fmt.Fprint(w, `{"ready":true,"generation":{"store_generation":1,"corpus_sha256":"abc"}}`)
				return
			}
			hits[name].Add(1)
			if slow.Load() == name {
				select {
				case <-time.After(slowFor):
				case <-r.Context().Done():
					return
				}
			}
			fmt.Fprint(w, "ok")
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	r1, r2 := fake("r1"), fake("r2")

	f := NewFront(FrontConfig{
		Replicas:      []Replica{{Name: "r1", URL: r1.URL}, {Name: "r2", URL: r2.URL}},
		HedgeAfter:    hedgeAfter,
		CheckInterval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	waitFor(t, 5*time.Second, "both replicas routable", func() bool { return len(f.routable()) == 2 })

	// get stalls the key's first candidate and fetches path through
	// the front, returning the answering replica and the elapsed time.
	get := func(path string) (string, time.Duration) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		slow.Store(f.candidates(shardKey(req))[0].Name)
		start := time.Now()
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		return resp.Header.Get("X-Fleet-Replica"), time.Since(start)
	}

	// A slow segment fetch: one attempt, no hedge, the slow owner's
	// answer is the one served.
	rep, took := get("/v1/gen/segment/1/seg-0000.dat")
	if s := f.Stats(); s.Hedged != 0 || s.Proxied != 1 {
		t.Fatalf("segment fetch: %d hedged, %d attempts; want 0 and 1", s.Hedged, s.Proxied)
	}
	if rep != slow.Load() || took < slowFor {
		t.Fatalf("segment fetch answered by %s after %v, want the slow %s after ≥ %v", rep, took, slow.Load(), slowFor)
	}
	if n := hits["r1"].Load() + hits["r2"].Load(); n != 1 {
		t.Fatalf("segment fetch reached replicas %d times, want 1", n)
	}

	// A slow query: hedged after HedgeAfter, the fast replica wins.
	rep, took = get("/v1/snapshot")
	if s := f.Stats(); s.Hedged != 1 {
		t.Fatalf("snapshot: %d hedged, want 1", s.Hedged)
	}
	if rep == slow.Load() || took >= slowFor {
		t.Fatalf("snapshot answered by %s after %v, want the fast replica before %v", rep, took, slowFor)
	}
}
