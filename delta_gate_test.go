package hftnetview

import (
	"reflect"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/report"
	"hftnetview/internal/sites"
)

// TestDeltaSweepBudget is the delta path's performance gate (E22): a
// daily-grid evolution sweep through the engine's event-log replay must
// beat the legacy rebuild-per-date path by at least 10x, and produce
// identical points. The gate is a same-process ratio, so it holds on
// any machine; the absolute numbers live in BENCH_*.json. A dense grid
// is exactly the delta path's home turf — thousands of dates collapse
// onto the few dozen anchors where the licensee's license set actually
// changed — so a failure here means the anchor re-keying or the linear
// sweep regressed structurally, not that the runner was slow.
func TestDeltaSweepBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short mode")
	}
	db, err := GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	dates, err := core.GridDates(2016, 2020, "daily")
	if err != nil {
		t.Fatal(err)
	}
	licensee := report.Fig1Networks[0]
	path := PathNY4()
	opts := DefaultOptions()

	// Legacy oracle: one full stab-query reconstruction per date.
	direct := core.DirectProvider(db)
	startFull := time.Now()
	want, err := core.EvolutionVia(direct, licensee, path, dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(startFull)

	// Delta path: a cold engine sweeping the same grid linearly.
	eng := NewEngine(db)
	startDelta := time.Now()
	got, err := eng.Evolution(licensee, path, dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := time.Since(startDelta)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta sweep diverges from the rebuild-per-date oracle over %d dates", len(dates))
	}
	st := eng.Stats()
	if st.Rebuilds >= int64(len(dates)) {
		t.Fatalf("sweep did %d rebuilds over %d dates: anchor grouping is not collapsing the grid", st.Rebuilds, len(dates))
	}
	if delta*10 > full {
		t.Fatalf("delta sweep %v is not 10x faster than the full-rebuild path %v (%d dates, %d rebuilds)",
			delta, full, len(dates), st.Rebuilds)
	}
	t.Logf("daily sweep %d dates: full rebuild %v, delta %v (%.0fx, %d rebuilds, %d events replayed)",
		len(dates), full, delta, float64(full)/float64(delta), st.Rebuilds, st.EventsReplayed)
}

// TestSnapshotHitAllocs is the memo-hit allocation gate: a hit on a
// primed engine canonicalizes the request key and copies the shared
// network's header to carry the request date, and nothing else — the
// towers, links and graph are shared read-only, so the cost does not
// grow with the network. A hit that allocates more than the ceiling
// means a per-hit deep copy (or similar) crept back in. The count is
// same-process and deterministic, so it holds on any runner.
func TestSnapshotHitAllocs(t *testing.T) {
	const ceiling = 20
	db, err := GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db)
	req := SnapshotRequest{
		Licensees: []string{"Webline Holdings"},
		Date:      Snapshot(),
		DCs:       sites.All,
		Opts:      DefaultOptions(),
	}
	if _, err := eng.Snapshot(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Snapshot(req); err != nil {
			t.Fatal(err)
		}
	})
	if st := eng.Stats(); st.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1: the measured calls were not memo hits", st.Rebuilds)
	}
	if allocs > ceiling {
		t.Fatalf("memo hit costs %.0f allocs, ceiling %d", allocs, ceiling)
	}
	t.Logf("memo hit: %.0f allocs (ceiling %d)", allocs, ceiling)
}
