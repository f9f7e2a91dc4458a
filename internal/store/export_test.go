package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

func TestExportInstallRoundTrip(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := primary.Save(db, "primary gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if len(gi.Segments) < 2 {
		t.Fatalf("want a multi-segment generation, got %d segments", len(gi.Segments))
	}

	mb, id, err := primary.ExportManifest(0)
	if err != nil {
		t.Fatalf("export manifest: %v", err)
	}
	if id != gi.ID {
		t.Fatalf("exported generation %d, want %d", id, gi.ID)
	}
	pgi, err := ParseManifest(mb)
	if err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	if pgi.ID != gi.ID || pgi.CorpusSHA256 != gi.CorpusSHA256 || len(pgi.Segments) != len(gi.Segments) {
		t.Fatalf("parsed manifest %+v does not match saved %+v", pgi, gi)
	}

	replica := open(t, t.TempDir())
	igi, idb, err := stagedInstall(replica, mb, shipFetch(primary, id), nil)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if igi.ID != gi.ID || igi.CorpusSHA256 != gi.CorpusSHA256 {
		t.Fatalf("installed %+v, want %+v", igi, gi)
	}
	if !bytes.Equal(bulkBytes(t, idb), bulkBytes(t, db)) {
		t.Fatal("installed corpus differs from the shipped one")
	}

	// The replica's store is now warm-bootable on its own.
	back, lgi, _, err := replica.Load()
	if err != nil {
		t.Fatalf("replica load: %v", err)
	}
	if lgi.ID != gi.ID || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatal("replica warm boot does not reproduce the shipped corpus")
	}

	// Re-installing the same generation is refused (idempotence).
	if _, _, err := stagedInstall(replica, mb, shipFetch(primary, id), nil); !errors.Is(err, os.ErrExist) {
		t.Fatalf("re-install: err = %v, want os.ErrExist", err)
	}
}

// TestInstallRejectsCorruptDownload flips bits in (or truncates) a
// fetched segment and asserts the staged install refuses to commit
// anything.
func TestInstallRejectsCorruptDownload(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := primary.Save(db, "primary gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	mb, id, err := primary.ExportManifest(0)
	if err != nil {
		t.Fatalf("export manifest: %v", err)
	}

	for _, mode := range []string{"bitflip", "truncate"} {
		replica := open(t, t.TempDir())
		target := gi.Segments[len(gi.Segments)/2].Name
		fetch := func(name string) ([]byte, error) {
			data, err := shipFetch(primary, id)(name)
			if err != nil || name != target {
				return data, err
			}
			if mode == "bitflip" {
				return synth.FlipBits(data, 7, 3), nil
			}
			return data[:len(data)/2], nil
		}
		_, _, err := stagedInstall(replica, mb, fetch, nil)
		if !errors.Is(err, ErrVerify) {
			t.Fatalf("%s: install err = %v, want ErrVerify", mode, err)
		}
		// Nothing committed, no temp debris. The staging area stays for
		// a resume, but holds nothing of the rejected segment.
		if latest, _ := replica.LatestID(); latest != 0 {
			t.Fatalf("%s: replica committed generation %d from corrupt download", mode, latest)
		}
		ents, _ := os.ReadDir(replica.Dir())
		for _, e := range ents {
			if e.Name() != stagingRootName {
				t.Errorf("%s: debris left in replica store: %s", mode, e.Name())
			}
		}
		rep, err := replica.StagingReportFor(id)
		if err != nil {
			t.Fatalf("%s: staging report: %v", mode, err)
		}
		if _, ok := rep.Partial[target]; ok || slices.Contains(rep.Verified, target) {
			t.Errorf("%s: rejected segment %s survived in staging: %+v", mode, target, rep)
		}
	}
}

// TestGCReaderRace is the issue's GC-vs-concurrent-reader guarantee: a
// replica mid-pull of the oldest generation races `gc -keep`; the pull
// must either complete from intact files or fail cleanly with a
// retryable error — never hand over a half-deleted generation.
func TestGCReaderRace(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(8<<10), WithBlockLicenses(8))
	for i := 0; i < 3; i++ {
		if _, err := primary.Save(db, fmt.Sprintf("gen %d", i+1)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}

	// Deterministic interleaving first: manifest exported, then GC
	// sweeps the generation, then the segment read lands on air.
	mb, _, err := primary.ExportManifest(1)
	if err != nil {
		t.Fatalf("export manifest 1: %v", err)
	}
	pgi, err := ParseManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.GC(1); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, err := shipFetch(primary, 1)(pgi.Segments[0].Name); !IsRetryable(err) {
		t.Fatalf("segment read after GC: err = %v, want retryable ErrGenGone", err)
	}
	if _, _, err := primary.ExportManifest(1); !IsRetryable(err) {
		t.Fatalf("manifest read after GC: err = %v, want retryable ErrGenGone", err)
	}

	// Now the racing version: a replica pulls the oldest live
	// generation in a loop while GC(keep=1) runs concurrently after
	// every fresh Save. Every pull must either install a fully-verified
	// corpus or fail with an error the puller can classify (retryable
	// gone, or a fetch error wrapping it); ErrVerify here would mean a
	// half-deleted generation leaked through the read side.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: new generations + GC pressure
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := primary.Save(db, fmt.Sprintf("churn %d", i)); err != nil {
				t.Errorf("churn save: %v", err)
				return
			}
			if _, err := primary.GC(1); err != nil {
				t.Errorf("churn gc: %v", err)
				return
			}
		}
	}()

	installed, retried := 0, 0
	for i := 0; i < 40; i++ {
		replica := open(t, t.TempDir())
		// Pull whatever is oldest right now — maximally exposed to GC.
		ids, err := primary.manifestIDs()
		if err != nil || len(ids) == 0 {
			continue
		}
		oldest := ids[len(ids)-1]
		mb, _, err := primary.ExportManifest(oldest)
		if err != nil {
			if !IsRetryable(err) {
				t.Fatalf("pull %d: manifest export failed non-retryably: %v", i, err)
			}
			retried++
			continue
		}
		// Read the whole generation before staging it. GC races the read
		// side, which is what this test drills; staging fsyncs each
		// segment as it lands, so a pull that interleaved the two would
		// outlive every generation the churn keeps and never finish.
		gi, err := ParseManifest(mb)
		if err != nil {
			t.Fatalf("pull %d: exported manifest does not parse: %v", i, err)
		}
		segs := make(map[string][]byte)
		for _, si := range gi.Segments {
			if segs[si.Name], err = shipFetch(primary, oldest)(si.Name); err != nil {
				break
			}
		}
		var idb *uls.Database
		if err == nil {
			_, idb, err = stagedInstall(replica, mb, func(name string) ([]byte, error) { return segs[name], nil }, nil)
		}
		switch {
		case err == nil:
			if !bytes.Equal(bulkBytes(t, idb), bulkBytes(t, db)) {
				t.Fatalf("pull %d: installed corpus differs from the published one", i)
			}
			installed++
		case IsRetryable(err):
			retried++
		case errors.Is(err, ErrVerify):
			t.Fatalf("pull %d: verification failure under GC churn (half-deleted generation leaked): %v", i, err)
		default:
			t.Fatalf("pull %d: unexpected install error: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("gc race: %d pulls installed verified, %d failed retryably", installed, retried)
	if installed == 0 {
		t.Error("no pull ever completed — the race harness starved the reader")
	}
}
