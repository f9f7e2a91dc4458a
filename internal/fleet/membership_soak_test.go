package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/synth"
)

// TestMembershipChaosSoak is E23, the self-healing membership drill:
// a fleet built ENTIRELY from self-registering replicas (the front
// starts with zero static members), under saturating query load,
// while a seeded multi-fault campaign composes every failure mode the
// chaos layer knows — SIGKILL-shaped crashes, front↔replica and
// replica↔primary partitions, a full primary outage, slow and hung
// replicas, clock skew on the lease timestamps, silent heartbeat
// stalls, and corruption bursts on the shipping wire — several at a
// time, in random combinations.
//
// Invariants, checked on every single client response and after every
// round:
//
//   - zero wrong-generation responses: a 200's generation was really
//     published and carries that generation's digest;
//   - bounded staleness: every 200 within the staleness budget of the
//     primary's newest at request time;
//   - the error surface is exactly {200, 503+Retry-After} — crashes,
//     partitions, hangs, and overload all collapse into those two;
//   - ring convergence: within one lease TTL of a round healing,
//     every surviving replica is back in the member ring;
//   - lease-lapse eviction: a replica that silently stops renewing is
//     evicted within one TTL, and rejoins on its next heartbeat.
//
// Run under -race via `make membership-soak` (wired into `make ci`).
func TestMembershipChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		soakFor        = 4 * time.Second * raceScale
		replicaCount   = 3
		clients        = 6
		stalenessBound = 3
		publishEvery   = 350 * time.Millisecond * raceScale
		pullEvery      = 80 * time.Millisecond
		checkEvery     = 25 * time.Millisecond
		leaseTTL       = 300 * time.Millisecond * raceScale
		announceEvery  = 60 * time.Millisecond
		holdMin        = 200 * time.Millisecond * raceScale
		holdMax        = 550 * time.Millisecond * raceScale
		// convergeBudget is the issue's bound: one lease TTL from heal
		// to full ring re-convergence, plus sweep-cadence slack (the
		// sweeper and prober only look every checkEvery).
		convergeBudget = leaseTTL + 4*checkEvery
	)

	// Primary: publishing fresh generations throughout, except during
	// the primary-outage fault (a down primary publishes nothing, which
	// is exactly what keeps "serve the last installed generation"
	// within the staleness bound).
	pst, pub, primary := newSoakPrimary(t, "membership soak seed")
	var pubPaused atomic.Bool

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // publisher, pausable by the primary-outage fault
		defer wg.Done()
		pub.publish(ctx, t, pst, publishEvery, &pubPaused, "membership soak update")
	}()

	// Front tier: NO static replicas — the whole fleet must assemble
	// itself through /v1/fleet/join. Its client rides a Partitioner so
	// the campaign can sever the front→replica and front→primary links.
	frontPart := NewPartitioner(nil)
	f := NewFront(FrontConfig{
		Primary:        primary.URL,
		StalenessBound: stalenessBound,
		LeaseTTL:       leaseTTL,
		MinHealthy:     1,
		HedgeAfter:     50 * time.Millisecond,
		RequestTimeout: 3 * time.Second,
		RetryAfter:     100 * time.Millisecond,
		CheckInterval:  checkEvery,
		Client:         &http.Client{Timeout: 2 * time.Second, Transport: frontPart},
	})
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	// Replicas: self-registering, killable, each behind a corrupting
	// wire stacked under a pull-side partitioner, an announce-side
	// partitioner, and a slow/hang gate.
	baseDir := t.TempDir()
	mixed := synth.Profiles()[len(synth.Profiles())-1]
	replicas := make([]*ChaosReplica, replicaCount)
	wires := make([]*FaultyTransport, replicaCount)
	pullParts := make([]*Partitioner, replicaCount)
	annParts := make([]*Partitioner, replicaCount)
	gates := make([]*SlowGate, replicaCount)
	for i := range replicas {
		wires[i] = NewFaultyTransport(nil, mixed, uint64(2000+i))
		wires[i].SetRate(0.05) // constant background corruption, as in E21
		pullParts[i] = NewPartitioner(wires[i])
		annParts[i] = NewPartitioner(nil)
		gates[i] = &SlowGate{}
		replicas[i] = &ChaosReplica{
			Name:         fmt.Sprintf("r%d", i+1),
			StoreDir:     filepath.Join(baseDir, fmt.Sprintf("replica-%d", i+1)),
			Primary:      primary.URL,
			PullInterval: pullEvery,
			Transport:    pullParts[i],
			Keep:         3,
			ServeCfg: serve.Config{
				MaxInFlight:      4,
				MaxQueueWait:     2 * time.Millisecond,
				RequestTimeout:   5 * time.Second,
				BreakerThreshold: 1 << 30,
			},
			Front:             front.URL,
			AnnounceTransport: annParts[i],
			AnnounceInterval:  announceEvery,
			Gate:              gates[i],
		}
	}
	// r3's clock runs two hours fast for the WHOLE soak: every one of
	// its announces carries a wildly skewed timestamp, and nothing
	// anywhere may care (leases live on the front's clock alone). Its
	// bootstrap join below is the first proof.
	replicas[2].SetSkew(2 * time.Hour)
	for i := range replicas {
		if err := replicas[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer replicas[i].Kill()
	}

	// The fleet must assemble itself: all three announce, join, and
	// turn routable with no static configuration.
	waitFor(t, 10*time.Second, "self-registered fleet bootstrap", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
			Members  int `json:"members"`
		}](t, front.Client(), front.URL+"/readyz")
		return ready.Members == replicaCount && ready.Routable == replicaCount
	})

	// The fault palette. Inject/Heal run only on the campaign
	// goroutine, so the draw counters are plain ints.
	var killN, frontPartN, primaryPartN, outageN, corruptN, gateN, pauseN, skewN int
	var faults []Fault
	for i, r := range replicas {
		wire, pullPart, annPart := wires[i], pullParts[i], annParts[i]
		faults = append(faults,
			Fault{
				Name:   "kill-" + r.Name,
				Inject: func() { killN++; r.Kill() },
				Heal: func() {
					if !r.Running() {
						if err := r.Start(); err != nil {
							t.Errorf("chaos restart %s: %v", r.Name, err)
						}
					}
				},
			},
			Fault{
				// Both directions at once: the front can neither probe
				// nor proxy to the replica, and the replica's renewals
				// never arrive — held past the TTL this is an eviction.
				Name:   "partition-front-" + r.Name,
				Inject: func() { frontPartN++; frontPart.Block(r.URL()); annPart.Block(front.URL) },
				Heal:   func() { frontPart.Unblock(r.URL()); annPart.Unblock(front.URL) },
			},
			Fault{
				// The replica keeps serving its last installed
				// generation; the front's staleness exclusion handles
				// the rest if the primary races ahead.
				Name:   "partition-primary-" + r.Name,
				Inject: func() { primaryPartN++; pullPart.Block(primary.URL) },
				Heal:   func() { pullPart.Unblock(primary.URL) },
			},
			Fault{
				Name:   "corrupt-burst-" + r.Name,
				Inject: func() { corruptN++; wire.SetRate(0.25) },
				Heal:   func() { wire.SetRate(0.05) },
			},
		)
	}
	faults = append(faults,
		Fault{
			// Above the probe timeout: the slow replica goes unhealthy
			// and in-flight reads hedge to a sibling.
			Name:   "slow-r1",
			Inject: func() { gateN++; gates[0].SetDelay(120 * time.Millisecond) },
			Heal:   func() { gates[0].Clear() },
		},
		Fault{
			Name:   "hang-r2",
			Inject: func() { gateN++; gates[1].Hang() },
			Heal:   func() { gates[1].Clear() },
		},
		Fault{
			// r3's clock jumps from two hours fast to three hours slow
			// mid-lease. Renewals must sail through either way.
			Name:   "skew-flip-r3",
			Inject: func() { skewN++; replicas[2].SetSkew(-3 * time.Hour) },
			Heal:   func() { replicas[2].SetSkew(2 * time.Hour) },
		},
		Fault{
			// The silent death: the process is fine, the heartbeat just
			// stops. Held past the TTL, the lease lapses and r1 is
			// evicted with nobody telling the front anything.
			Name:   "pause-announce-r1",
			Inject: func() { pauseN++; replicas[0].SetAnnouncePaused(true) },
			Heal:   func() { replicas[0].SetAnnouncePaused(false) },
		},
		Fault{
			// Primary outage: nobody can pull, the front's generation
			// poll goes dark, nothing new is published — and the fleet
			// keeps answering from the last installed generation.
			Name: "primary-outage",
			Inject: func() {
				outageN++
				pubPaused.Store(true)
				frontPart.Block(primary.URL)
				for _, pp := range pullParts {
					pp.Block(primary.URL)
				}
			},
			Heal: func() {
				frontPart.Unblock(primary.URL)
				for _, pp := range pullParts {
					pp.Unblock(primary.URL)
				}
				pubPaused.Store(false)
			},
		},
	)

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
			for time.Now().Before(deadline) {
				lo := pub.latest.Load()
				resp, err := client.Get(front.URL + queries[c%len(queries)])
				if err != nil {
					t.Errorf("client %d: transport error through front: %v", c, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// +3 slack: generations published mid-flight, probe
				// lag, and partition-heal catchup.
				if err := pub.audit(resp, lo, stalenessBound, 3); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					oks.Add(1)
					continue
				}
				sheds.Add(1)
				// Back off a beat on shed: a client that hammers a
				// shedding front in a hot loop is its own chaos.
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	// The campaign proper: seeded multi-fault rounds, with the ring
	// convergence assertion after every heal.
	memberNames := func() []string {
		var names []string
		for _, m := range f.Members().Stats().Members {
			names = append(names, m.Name)
		}
		return names
	}
	campCtx, campCancel := context.WithTimeout(ctx, soakFor)
	defer campCancel()
	camp := &Campaign{
		Seed:    0xE23,
		Faults:  faults,
		HoldMin: holdMin,
		HoldMax: holdMax,
		OnRoundHealed: func(round int, injected []string) bool {
			healed := time.Now()
			for {
				converged := true
				for _, r := range replicas {
					if !r.Running() || !f.Members().Has(r.Name) {
						converged = false
						break
					}
				}
				if converged {
					return true
				}
				if time.Since(healed) > convergeBudget {
					t.Errorf("round %d (%s): ring did not re-converge within %v of heal; members now %v",
						round, strings.Join(injected, "+"), convergeBudget, memberNames())
					return false
				}
				time.Sleep(2 * time.Millisecond)
			}
		},
	}
	rounds := camp.Run(campCtx)
	cwg.Wait()

	// Deterministic lease-lapse epilogue (the campaign's pause fault
	// may not have held past the TTL): r1 goes silent, must be evicted
	// within one TTL of its last renewal plus sweep slack, then rejoin
	// on its next heartbeat once it resumes.
	drill := replicas[0]
	drill.SetAnnouncePaused(true)
	waitFor(t, leaseTTL+150*time.Millisecond*raceScale, "silently dead replica evicted", func() bool {
		return !f.Members().Has(drill.Name)
	})
	drill.SetAnnouncePaused(false)
	waitFor(t, convergeBudget, "resumed replica rejoined", func() bool {
		return f.Members().Has(drill.Name)
	})

	cancel()
	wg.Wait()

	// The drill must have actually drilled.
	if rounds < 3 {
		t.Errorf("only %d campaign rounds in %v — the fault mixer barely ran", rounds, soakFor)
	}
	if oks.Load() == 0 {
		t.Fatal("no successful responses during the soak")
	}
	ms := f.Members().Stats()
	if ms.Evictions == 0 {
		t.Error("no lease-lapse evictions — the failure detector never fired")
	}
	if ms.Joins < replicaCount+1 {
		t.Errorf("%d joins: want the %d bootstraps plus at least one post-eviction rejoin", ms.Joins, replicaCount)
	}
	// r3 announced with a clock hours off from its very first join: the
	// skew must be on the diagnostics surface and nowhere else.
	if ms.MaxSkewSeconds < 7000 {
		t.Errorf("max observed skew %.0fs, want ≥ ~2h — the skew leg is vacuous", ms.MaxSkewSeconds)
	}
	var corrupted, rejections, installs, backoffs int64
	for i, r := range replicas {
		corrupted += wires[i].Corrupted.Load()
		cum := r.CumulativeStatus()
		rejections += cum.Rejections
		installs += cum.Installs
		backoffs += cum.Backoffs
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
	if primaryPartN+outageN > 0 && backoffs == 0 {
		t.Error("pulls were partitioned but no puller ever backed off")
	}
	var pullBlocked, annBlocked int64
	for i := range replicas {
		pullBlocked += pullParts[i].Blocked.Load()
		annBlocked += annParts[i].Blocked.Load()
	}
	t.Logf("soak: %d rounds, %d ok, %d shed; faults drawn: kill=%d partFront=%d partPrimary=%d outage=%d corrupt=%d gate=%d pause=%d skew=%d; refused: front=%d pull=%d announce=%d; pulls: %d backoffs, %d corrupted, %d rejections, %d installs; membership: joins=%d renews=%d leaves=%d evictions=%d maxSkew=%.0fs; front stats %+v",
		rounds, oks.Load(), sheds.Load(),
		killN, frontPartN, primaryPartN, outageN, corruptN, gateN, pauseN, skewN,
		frontPart.Blocked.Load(), pullBlocked, annBlocked,
		backoffs, corrupted, rejections, installs,
		ms.Joins, ms.Renews, ms.Leaves, ms.Evictions, ms.MaxSkewSeconds, f.Stats())
}
