package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
)

// TestHealSoak is E24, the self-healing data-plane drill: a fleet with
// NO external primary at all. The source of truth is a role, not a
// process — the front elects one member to publish, every member ships
// its generations to its peers, and a background scrubber on every
// member repairs bit rot in place from whichever peer still holds a
// verified copy. A seeded campaign composes the fatal faults on top of
// E23's palette: the source is killed PERMANENTLY (never restarted),
// bytes rot on live replicas' disks, partitions sever repair paths —
// all under saturating audited load.
//
// Invariants:
//
//   - promotion: within one lease TTL of the source dying, a healthy
//     member holding the newest generation is promoted under a higher
//     epoch, and publishing resumes;
//   - anti-entropy: every injected bit-flip is repaired in place —
//     no replica is restarted to heal, and every surviving store ends
//     the soak Fsck-clean;
//   - fencing: epochs observed at the front only ever increase, and a
//     returning dead source rejoins as a plain replica — the role and
//     epoch it finds are someone else's, and its unshipped tail is
//     reconciled away rather than served;
//   - the client-visible error surface stays exactly
//     {200, 503+Retry-After}, with zero wrong-generation or
//     wrong-digest responses.
//
// Run under -race via `make heal-soak` (wired into `make ci`).
func TestHealSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		soakFor        = 5 * time.Second * raceScale
		replicaCount   = 4
		clients        = 4
		stalenessBound = 3
		publishEvery   = 300 * time.Millisecond * raceScale
		pullEvery      = 60 * time.Millisecond
		checkEvery     = 25 * time.Millisecond
		leaseTTL       = 300 * time.Millisecond * raceScale
		announceEvery  = 60 * time.Millisecond
		scrubEvery     = 75 * time.Millisecond * raceScale
		holdMin        = 250 * time.Millisecond * raceScale
		holdMax        = 600 * time.Millisecond * raceScale
		// promoteBudget is the issue's bound: one lease TTL from source
		// death to a new source elected, plus probe-cadence slack (the
		// health-fail path usually beats the lease lapse).
		promoteBudget = leaseTTL + 40*checkEvery
	)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pub := newPublishLog() // ids reused across a promotion keep every digest

	// Front tier: promotion on, zero static members, no Primary URL —
	// the fleet's newest generation is whatever the elected source
	// probes as.
	frontPart := NewPartitioner(nil)
	f := NewFront(FrontConfig{
		Promote:        true,
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

	// Replicas: every one ships, scrubs, pulls from the front-resolved
	// source, and self-registers. m1's store is seeded with generation 1
	// before boot, so the first election deterministically picks it.
	baseDir := t.TempDir()
	mixed := synth.Profiles()[len(synth.Profiles())-1]
	replicas := make([]*ChaosReplica, replicaCount)
	wires := make([]*FaultyTransport, replicaCount)
	pullParts := make([]*Partitioner, replicaCount)
	annParts := make([]*Partitioner, replicaCount)
	for i := range replicas {
		wires[i] = NewFaultyTransport(nil, mixed, uint64(2400+i))
		wires[i].SetRate(0.04) // constant background wire corruption
		pullParts[i] = NewPartitioner(wires[i])
		annParts[i] = NewPartitioner(nil)
		replicas[i] = &ChaosReplica{
			Name:          fmt.Sprintf("m%d", i+1),
			StoreDir:      filepath.Join(baseDir, fmt.Sprintf("member-%d", i+1)),
			PullFront:     front.URL,
			PullInterval:  pullEvery,
			Transport:     pullParts[i],
			Keep:          4,
			ScrubInterval: scrubEvery,
			ScrubPause:    time.Millisecond,
			// High enough that the ladder never quarantines a generation
			// the campaign's repair paths just haven't reached yet.
			ScrubQuarantineAfter: 25,
			ServeCfg: serve.Config{
				MaxInFlight:      4,
				MaxQueueWait:     2 * time.Millisecond,
				RequestTimeout:   5 * time.Second,
				BreakerThreshold: 1 << 30,
			},
			Front:             front.URL,
			AnnounceTransport: annParts[i],
			AnnounceInterval:  announceEvery,
		}
	}
	seed, err := store.Open(replicas[0].StoreDir, store.WithSegmentTarget(16<<10), store.WithBlockLicenses(8))
	if err != nil {
		t.Fatal(err)
	}
	gi, err := seed.Save(corpus(t), "heal soak seed")
	if err != nil {
		t.Fatal(err)
	}
	pub.record(gi)
	seed.Close()
	for i := range replicas {
		if err := replicas[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer replicas[i].Kill()
	}
	byName := func(name string) *ChaosReplica {
		for _, r := range replicas {
			if r.Name == name {
				return r
			}
		}
		return nil
	}

	// Bootstrap: the fleet assembles itself, elects m1 (the only member
	// holding a generation), and everyone replicates to routable.
	waitFor(t, 15*time.Second, "self-elected fleet bootstrap", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
			Members  int `json:"members"`
		}](t, front.Client(), front.URL+"/readyz")
		return ready.Members == replicaCount && ready.Routable == replicaCount &&
			f.Members().Source().Name == replicas[0].Name
	})

	// Epoch watcher: the fence must be monotone at the front for the
	// whole soak, through every promotion and rejoin.
	var epochViolations atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var maxEpoch int64
		for ctx.Err() == nil {
			if e := f.Members().Source().Epoch; e < maxEpoch {
				epochViolations.Add(1)
			} else {
				maxEpoch = e
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Publisher: saves fresh generations into whichever member currently
	// holds the source role — the writer follows the election. killMu
	// serializes publishing with kills so a Save never races the store
	// teardown of the member it targets.
	var killMu sync.Mutex
	pubCtx, pubCancel := context.WithCancel(ctx)
	defer pubCancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-pubCtx.Done():
				return
			case <-time.After(publishEvery):
			}
			killMu.Lock()
			src := f.Members().Source()
			if r := byName(src.Name); r != nil {
				if st, srv := r.Store(), r.Server(); st != nil && srv != nil {
					gi, err := st.Save(corpus(t), fmt.Sprintf("heal soak update %d (epoch %d)", n, src.Epoch))
					if err == nil {
						srv.PublishStoreGeneration(corpus(t), gi)
						pub.record(gi)
						// Bound the source's history (and with it each scrub
						// cycle's work); keeping more than the replicas'
						// Keep=4 leaves repair peers plenty of overlap.
						_, _ = st.GC(8)
					}
					// A failed save just means the source was being torn
					// down under us; the next tick follows the new role.
				}
			}
			killMu.Unlock()
		}
	}()

	// flipOnDisk injects bit rot: one payload byte of one committed
	// segment, preferring the second-newest generation (already
	// replicated to peers, so a verified repair copy exists). Returns
	// whether a byte actually flipped.
	flipOnDisk := func(r *ChaosReplica) bool {
		st := r.Store()
		if st == nil {
			return false
		}
		gens, err := st.List()
		if err != nil || len(gens) == 0 {
			return false
		}
		// List is newest first.
		g := gens[0]
		if len(gens) >= 2 {
			g = gens[1]
		}
		if len(g.Segments) == 0 {
			return false
		}
		seg := g.Segments[len(g.Segments)/2]
		path := filepath.Join(r.StoreDir, fmt.Sprintf("gen-%06d", g.ID), seg.Name)
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return false // generation GC'd or quarantined mid-draw
		}
		defer fh.Close()
		buf := make([]byte, 1)
		// Offset 16 is the first payload byte: past the 8-byte magic and
		// the first frame's length+CRC header.
		if _, err := fh.ReadAt(buf, 16); err != nil {
			return false
		}
		buf[0] ^= 0x40
		_, err = fh.WriteAt(buf, 16)
		return err == nil
	}

	// The fault palette: transient kills (the source included — a kill
	// held past the failure detector forces a promotion and the victim
	// returns into a fleet that moved on), front partitions, corruption
	// bursts on the pull wire, and on-disk bit rot. Inject/Heal run only
	// on the campaign goroutine, so the counters are plain ints.
	var killN, frontPartN, corruptN, bitflipN int
	var faults []Fault
	for i, r := range replicas {
		wire, annPart := wires[i], annParts[i]
		faults = append(faults,
			Fault{
				Name: "kill-" + r.Name,
				Inject: func() {
					killN++
					killMu.Lock()
					r.Kill()
					killMu.Unlock()
				},
				Heal: func() {
					if !r.Running() {
						if err := r.Start(); err != nil {
							t.Errorf("chaos restart %s: %v", r.Name, err)
						}
					}
				},
			},
			Fault{
				Name:   "partition-front-" + r.Name,
				Inject: func() { frontPartN++; frontPart.Block(r.URL()); annPart.Block(front.URL) },
				Heal:   func() { frontPart.Unblock(r.URL()); annPart.Unblock(front.URL) },
			},
			Fault{
				Name:   "corrupt-burst-" + r.Name,
				Inject: func() { corruptN++; wire.SetRate(0.25) },
				Heal:   func() { wire.SetRate(0.04) },
			},
			Fault{
				Name: "bitrot-" + r.Name,
				Inject: func() {
					if flipOnDisk(r) {
						bitflipN++
					}
				},
				Heal: func() {}, // only the scrubber heals bit rot
			},
		)
	}

	// Client fleet: saturating audited read load through the front.
	queries := []string{
		"/v1/snapshot",
		"/v1/snapshot?licensee=New%20Line%20Networks",
		"/v1/rank?metric=rail",
		"/v1/evolution?licensee=Webline%20Holdings",
	}
	var oks, sheds atomic.Int64
	clientDeadline := time.Now().Add(soakFor + 4*time.Second*raceScale)
	cwg := sync.WaitGroup{}
	for c := 0; c < clients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			client := &http.Client{Timeout: 8 * time.Second}
			for time.Now().Before(clientDeadline) {
				lo := pub.latest.Load()
				resp, err := client.Get(front.URL + queries[c%len(queries)])
				if err != nil {
					t.Errorf("client %d: transport error through front: %v", c, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// +4 slack: publishes mid-flight, probe lag, and the
				// re-anchored generation floor after a promotion.
				if err := pub.audit(resp, lo, stalenessBound, 4); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					oks.Add(1)
					continue
				}
				sheds.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	// The campaign proper: after every healed round the surviving fleet
	// must re-converge — every running replica back in the ring and a
	// source role held by a live member.
	campCtx, campCancel := context.WithTimeout(ctx, soakFor)
	defer campCancel()
	camp := &Campaign{
		Seed:    0xE24,
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
					src := f.Members().Source()
					if src.Name != "" && byName(src.Name) != nil && byName(src.Name).Running() {
						return true
					}
					converged = false
				}
				if time.Since(healed) > leaseTTL+promoteBudget {
					t.Errorf("round %d (%s): fleet did not re-converge within %v of heal; source now %+v",
						round, strings.Join(injected, "+"), leaseTTL+promoteBudget, f.Members().Source())
					return false
				}
				time.Sleep(2 * time.Millisecond)
			}
		},
	}
	rounds := camp.Run(campCtx)

	// Deterministic promotion drill: the elected source dies PERMANENTLY
	// — no restart — and the fleet must re-elect within the budget and
	// resume publishing. (The campaign's transient kills exercise the
	// same machinery with recovery; this is the unrecoverable case the
	// issue names.) An extra generation is saved but never announced
	// first: the dead source's unshipped tail, which the rebirth drill
	// below must find reconciled away, never served as fleet truth.
	srcBefore := f.Members().Source()
	victim := byName(srcBefore.Name)
	if victim == nil || !victim.Running() {
		t.Fatalf("no live source to kill: %+v", srcBefore)
	}
	killMu.Lock()
	if st := victim.Store(); st != nil {
		if gi, err := st.Save(corpus(t), "unshipped tail"); err == nil {
			pub.record(gi) // it exists on disk; if anything ever serves it, the digest is legitimate
		}
	}
	killedAt := time.Now()
	genAtKill := pub.latest.Load()
	victim.Kill()
	killMu.Unlock()
	t.Logf("heal soak: permanently killed source %s (epoch %d) at generation %d", victim.Name, srcBefore.Epoch, genAtKill)

	waitFor(t, promoteBudget+time.Second, "replacement source elected", func() bool {
		src := f.Members().Source()
		return src.Name != "" && src.Name != victim.Name && src.Epoch > srcBefore.Epoch
	})
	t.Logf("heal soak: re-elected %+v %v after source death", f.Members().Source(), time.Since(killedAt))
	waitFor(t, promoteBudget+6*publishEvery, "publishing resumed under the new source", func() bool {
		return pub.latest.Load() > genAtKill
	})

	// Bit-rot drill, deterministic regardless of the campaign's draws:
	// rot a byte on a surviving replica and watch the scrubber repair it
	// in place — same store instance, no restart.
	var drill *ChaosReplica
	for _, r := range replicas {
		if r.Running() && r.Name != f.Members().Source().Name {
			drill = r
			break
		}
	}
	if drill == nil {
		t.Fatal("no surviving non-source replica for the bit-rot drill")
	}
	repairedBefore := drill.CumulativeScrub().Repaired
	stBefore := drill.Store()
	waitFor(t, 10*time.Second, "bit-rot drill injected", func() bool { return flipOnDisk(drill) })
	bitflipN++
	waitFor(t, 10*time.Second, "scrubber repaired the rot in place", func() bool {
		return drill.CumulativeScrub().Repaired > repairedBefore
	})
	if drill.Store() != stBefore {
		t.Error("store instance changed during the repair drill — a restart healed it, not the scrubber")
	}

	// Rebirth drill: the dead old source returns. It must rejoin as a
	// plain replica — it never takes the role back from a live fleet,
	// despite warm-starting with the highest generation id in it — and
	// converge on the living branch, its unshipped tail reconciled away
	// rather than adopted as fleet truth.
	pubCancel()
	epochAtRebirth := f.Members().Source().Epoch
	if err := victim.Start(); err != nil {
		t.Fatalf("restarting dead source: %v", err)
	}
	waitFor(t, 10*time.Second, "dead source rejoined as a plain member", func() bool {
		ann := victim.Announcer()
		return ann != nil && ann.State().Joined
	})
	if st := victim.Announcer().State(); st.IsSource {
		t.Error("returning dead source still believes it holds the role")
	}
	if src := f.Members().Source(); src.Name == victim.Name {
		t.Errorf("returning dead source took the role back: %+v", src)
	}
	if e := f.Members().Source().Epoch; e < epochAtRebirth {
		t.Errorf("epoch went backwards across the rebirth: %d → %d", epochAtRebirth, e)
	}
	// With publishing stopped, every branch is frozen; the reborn
	// replica must converge on exactly the live source's newest id AND
	// digest.
	waitFor(t, 15*time.Second, "reborn replica converged on the living branch", func() bool {
		src := byName(f.Members().Source().Name)
		if src == nil || src == victim || !src.Running() {
			return false
		}
		sst, vst := src.Store(), victim.Store()
		if sst == nil || vst == nil {
			return false
		}
		sid, serr := sst.LatestID()
		vid, verr := vst.LatestID()
		if serr != nil || verr != nil || sid != vid {
			return false
		}
		sd, serr := sst.GenDigest(sid)
		vd, verr := vst.GenDigest(vid)
		return serr == nil && verr == nil && sd == vd
	})

	campCancel()
	cwg.Wait()
	cancel()
	wg.Wait()

	// Every injected bit-flip healed without a restart: each surviving
	// store must scrub to Fsck-clean (quarantined debris is invisible to
	// Fsck by design — quarantine is how an unrepairable generation is
	// retired without deletion).
	for _, r := range replicas {
		if !r.Running() {
			continue
		}
		r := r
		waitFor(t, 15*time.Second, "store "+r.Name+" scrubbed clean", func() bool {
			st := r.Store()
			if st == nil {
				return false
			}
			rep, err := st.Fsck()
			return err == nil && rep.OK()
		})
	}

	if rounds < 3 {
		t.Errorf("only %d campaign rounds in %v — the fault mixer barely ran", rounds, soakFor)
	}
	if oks.Load() == 0 {
		t.Fatal("no successful responses during the soak")
	}
	if epochViolations.Load() != 0 {
		t.Errorf("%d epoch regressions observed at the front — the fence is not monotone", epochViolations.Load())
	}
	if bitflipN == 0 {
		t.Error("no bit-flips injected — the rot leg is vacuous")
	}
	var repaired, scrubCorrupt, installs, diverged, fenced int64
	var wireCorrupted, rejections int64
	for i, r := range replicas {
		wireCorrupted += wires[i].Corrupted.Load()
		scrub := r.CumulativeScrub()
		repaired += scrub.Repaired
		scrubCorrupt += scrub.Corrupt
		cum := r.CumulativeStatus()
		installs += cum.Installs
		rejections += cum.Rejections
		diverged += cum.Diverged
		fenced += cum.Fenced
	}
	if repaired == 0 {
		t.Error("bit rot was injected but the scrubbers repaired nothing")
	}
	if installs < replicaCount-1 {
		t.Errorf("%d installs across the fleet, want at least the %d bootstrap pulls", installs, replicaCount-1)
	}
	if wireCorrupted > 0 && rejections+repaired == 0 {
		t.Error("the wire corrupted segments but nothing was ever rejected or repaired")
	}
	ms := f.Members().Stats()
	t.Logf("heal soak: %d rounds, %d ok, %d shed; faults drawn: kill=%d partFront=%d corrupt=%d bitflip=%d; scrub: corrupt=%d repaired=%d; pulls: installs=%d diverged=%d fenced=%d wireCorrupted=%d; membership: joins=%d evictions=%d source=%+v",
		rounds, oks.Load(), sheds.Load(),
		killN, frontPartN, corruptN, bitflipN,
		scrubCorrupt, repaired,
		installs, diverged, fenced, wireCorrupted,
		ms.Joins, ms.Evictions, ms.Source)
}
