package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/synth"
)

// TestFleetChaosSoak is E21, the issue's headline drill: three
// replicas behind the failover front tier, under saturating query
// load, while a chaos controller repeatedly SIGKILLs and restarts
// replicas, the primary keeps publishing (and GC'ing) generations, and
// every replica's wire corrupts segment downloads with the synth
// corruption profiles. The invariants, checked on every single client
// response:
//
//   - zero wrong-generation responses: a 200's generation header names
//     a generation the primary actually published, and its digest is
//     that generation's digest — a corrupted shipment that slipped
//     through verification would show up here;
//   - bounded staleness: every 200 was computed from a generation
//     within the staleness budget of the primary's newest at request
//     time;
//   - zero non-503 errors: clients see 200 or a well-formed 503 with
//     Retry-After, nothing else — kills mid-response, poisoned pulls,
//     and overload all collapse into those two statuses.
//
// Run under -race via `make fleet-soak` (wired into `make ci`).
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		soakFor        = 4 * time.Second * raceScale
		replicaCount   = 3
		clients        = 8
		stalenessBound = 3
		publishEvery   = 350 * time.Millisecond * raceScale
		pullEvery      = 80 * time.Millisecond
		checkEvery     = 25 * time.Millisecond
		killEvery      = 300 * time.Millisecond * raceScale
		restartAfter   = 150 * time.Millisecond
	)

	// Primary: a store publishing fresh generations throughout, shipped
	// over HTTP. The primary itself is never killed — E21 drills the
	// serving fleet, and the store crash drill (E20) covers the writer.
	pst, pub, primary := newSoakPrimary(t, "soak seed")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // publisher: new generation + GC sweep on a steady cadence
		defer wg.Done()
		pub.publish(ctx, t, pst, publishEvery, new(atomic.Bool), "soak update")
	}()

	// Replicas: killable, restartable, each behind a corrupting wire.
	baseDir := t.TempDir()
	replicas := make([]*ChaosReplica, replicaCount)
	faults := make([]*FaultyTransport, replicaCount)
	mixed := synth.Profiles()[len(synth.Profiles())-1] // the mixed profile
	for i := range replicas {
		faults[i] = NewFaultyTransport(nil, mixed, uint64(1000+i))
		// ~5% of segment downloads arrive mangled: with ~10 segments a
		// generation, roughly a third of pulls get poisoned — constant
		// rejection pressure while most replicas still keep up.
		faults[i].SetRate(0.05)
		replicas[i] = &ChaosReplica{
			Name:         fmt.Sprintf("r%d", i+1),
			StoreDir:     filepath.Join(baseDir, fmt.Sprintf("replica-%d", i+1)),
			Primary:      primary.URL,
			PullInterval: pullEvery,
			Transport:    faults[i],
			Keep:         3,
			ServeCfg: serve.Config{
				MaxInFlight:      4,
				MaxQueueWait:     2 * time.Millisecond,
				RequestTimeout:   5 * time.Second,
				BreakerThreshold: 1 << 30, // engine faults aren't this drill's chaos
			},
		}
		if err := replicas[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer replicas[i].Kill()
	}

	frontReplicas := make([]Replica, replicaCount)
	for i, r := range replicas {
		frontReplicas[i] = Replica{Name: r.Name, URL: r.URL()}
	}
	f := NewFront(FrontConfig{
		Replicas:       frontReplicas,
		Primary:        primary.URL,
		StalenessBound: stalenessBound,
		HedgeAfter:     50 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		CheckInterval:  checkEvery,
		Client:         &http.Client{Timeout: 5 * time.Second},
	})
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	// Wait for the fleet to bootstrap before opening the floodgates.
	waitFor(t, 10*time.Second, "fleet bootstrap", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, front.Client(), front.URL+"/readyz")
		return ready.Routable == replicaCount
	})

	// Chaos controller: kill a replica, let the fleet absorb it, bring
	// it back, repeat. Kills overlap client load the whole soak.
	var kills atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(42, 1))
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(killEvery):
			}
			r := replicas[rng.IntN(len(replicas))]
			r.Kill()
			kills.Add(1)
			select {
			case <-ctx.Done():
				return
			case <-time.After(restartAfter):
			}
			if err := r.Start(); err != nil {
				t.Errorf("chaos restart %s: %v", r.Name, err)
				return
			}
		}
	}()

	// Client fleet: saturating read load, every response audited.
	queries := []string{
		"/v1/snapshot",
		"/v1/snapshot?licensee=New%20Line%20Networks",
		"/v1/rank?metric=rail",
		"/v1/evolution?licensee=Webline%20Holdings",
		"/v1/apa",
	}
	var oks, sheds atomic.Int64
	deadline := time.Now().Add(soakFor)
	cwg := sync.WaitGroup{}
	for c := 0; c < clients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			client := &http.Client{Timeout: 8 * time.Second}
			rng := rand.New(rand.NewPCG(uint64(c), 99))
			for time.Now().Before(deadline) {
				// Snapshot the primary's newest BEFORE the request: any
				// response must be within the staleness budget of it
				// (plus slack for generations published mid-flight and
				// the front's own probe lag).
				lo := pub.latest.Load()
				resp, err := client.Get(front.URL + queries[rng.IntN(len(queries))])
				if err != nil {
					t.Errorf("client %d: transport error through front: %v", c, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err := pub.audit(resp, lo, stalenessBound, 2); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					oks.Add(1)
				} else {
					sheds.Add(1)
				}
			}
		}(c)
	}
	cwg.Wait()
	cancel()
	wg.Wait()

	// The drill must have actually drilled: kills landed, corruption
	// was injected and rejected, replicas re-installed after restarts,
	// and clients got real answers.
	if kills.Load() < 3 {
		t.Errorf("only %d kills in %v — chaos controller barely ran", kills.Load(), soakFor)
	}
	if oks.Load() == 0 {
		t.Fatal("no successful responses during the soak")
	}
	var corrupted, rejections, installs, retried int64
	for i, r := range replicas {
		corrupted += faults[i].Corrupted.Load()
		cum := r.CumulativeStatus()
		rejections += cum.Rejections
		installs += cum.Installs
		retried += cum.Retried
	}
	if corrupted == 0 {
		t.Error("fault transports injected nothing — the corruption leg is vacuous")
	}
	if corrupted > 0 && rejections == 0 {
		t.Error("segments were corrupted but no replica recorded a rejection")
	}
	if installs < replicaCount {
		t.Errorf("%d installs across the fleet, want at least the %d bootstraps", installs, replicaCount)
	}
	t.Logf("soak: %d ok, %d shed, %d kills, %d corrupted downloads, %d rejections, %d retried, %d installs, front stats %+v",
		oks.Load(), sheds.Load(), kills.Load(), corrupted, rejections, retried, installs, f.Stats())
}
