package core

import (
	"reflect"
	"testing"
	"time"

	"hftnetview/internal/geo"
	"hftnetview/internal/radio"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// providerDB builds a small two-network database: a laddered licensee
// (connected, alternates) and a chain licensee.
func providerDB(t testing.TB) *uls.Database {
	t.Helper()
	db := uls.NewDatabase()
	buildLadderNetwork(t, db, "Ladder Net", 12, 2000, grant15, 11000, 6000)
	buildChainNetwork(t, db, "Chain Net", 10, grant15, uls.Date{}, 11000)
	return db
}

// TestTowerKeyBoundarySignConsistency is the regression test for the
// quantization fix: a tower exactly on a cell boundary and one just
// east of it (well within co-location tolerance) must merge into the
// same cell in both hemispheres. With round-half-away-from-zero they
// merged at +87.125° but split at -87.125° — the corridor's hemisphere.
func TestTowerKeyBoundarySignConsistency(t *testing.T) {
	// 87.125 is exactly representable in binary and ×100 lands exactly
	// on the .5 quantization boundary at two decimals.
	for _, lon := range []float64{87.125, -87.125} {
		onBoundary := towerKey(geo.Point{Lat: 40, Lon: lon}, 2)
		justEast := towerKey(geo.Point{Lat: 40, Lon: lon + 0.0001}, 2)
		if onBoundary != justEast {
			t.Errorf("lon %v: boundary key %q != just-east key %q (sign-dependent split)",
				lon, onBoundary, justEast)
		}
	}
}

// TestTowerKeyNoNegativeZero: coordinates rounding to zero must not
// produce a distinct "-0" key.
func TestTowerKeyNoNegativeZero(t *testing.T) {
	neg := towerKey(geo.Point{Lat: -0.00001, Lon: -0.00001}, 4)
	pos := towerKey(geo.Point{Lat: 0.00001, Lon: 0.00001}, 4)
	if neg != pos {
		t.Errorf("negative-zero key %q != positive key %q", neg, pos)
	}
	if neg != "0.0000,0.0000" {
		t.Errorf("zero-cell key = %q, want 0.0000,0.0000", neg)
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := DefaultOptions()
	if base.Fingerprint() != DefaultOptions().Fingerprint() {
		t.Fatal("equal options produced different fingerprints")
	}
	variants := []Options{
		{TowerMergeDecimals: 5, MaxFiberMeters: 50e3, FiberTailsPerDC: 1, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 40e3, FiberTailsPerDC: 1, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, FiberTailsPerDC: 0, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, FiberTailsPerDC: 1, StretchBound: 1.10},
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for _, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("options %+v collide with a previous fingerprint %q", v, fp)
		}
		seen[fp] = true
	}
}

// TestNetworkCloneIndependence: a header copy of a Network (what the
// engine hands out per memo hit) shares the immutable towers, links and
// graph, yet re-dating the copy and routing it under a storm that fades
// every link must leave the original's date, contents and routes as
// they were.
func TestNetworkCloneIndependence(t *testing.T) {
	db := providerDB(t)
	orig, err := Reconstruct(db, "Ladder Net", date20, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r0, ok := orig.BestRoute(pathNY4)
	if !ok {
		t.Fatal("ladder network should be connected")
	}

	c := *orig
	c.Date = uls.NewDate(2021, time.January, 1)
	// One cell over the whole corridor with a near-zero fade margin
	// takes every microwave link of the copy down.
	mid := geo.Interpolate(sites.CME.Location, sites.NY4.Location, 0.5)
	storm := radio.Storm{Cells: []radio.Cell{{Center: mid, RadiusM: 2000e3, RateMMH: 100}}}
	imp, err := c.RouteUnderStorm(pathNY4, storm, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if imp.LinksDown != len(c.Links) {
		t.Fatalf("sanity: storm faded %d of %d links", imp.LinksDown, len(c.Links))
	}
	if imp.Connected {
		t.Error("copy should be disconnected under a storm that fades every link")
	}

	if orig.Date != date20 {
		t.Errorf("copy's date reached the original: %v", orig.Date)
	}
	fresh, err := Reconstruct(db, "Ladder Net", date20, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Towers, fresh.Towers) || !reflect.DeepEqual(orig.Links, fresh.Links) ||
		!reflect.DeepEqual(orig.Fiber, fresh.Fiber) {
		t.Error("original's towers, links or fiber differ from a fresh reconstruction")
	}
	r1, ok := orig.BestRoute(pathNY4)
	if !ok {
		t.Fatal("original lost connectivity after routing the copy under a storm")
	}
	if !reflect.DeepEqual(r1, r0) {
		t.Errorf("original route changed: %+v -> %+v", r0, r1)
	}
}

// TestProviderVariantsAgree: the Via analyses over a DirectProvider must
// reproduce the one-shot results exactly.
func TestProviderVariantsAgree(t *testing.T) {
	db := providerDB(t)
	p := DirectProvider(db)
	direct, err := ConnectedNetworks(db, date20, pathNY4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	via, err := ConnectedNetworksVia(p, date20, pathNY4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(via) {
		t.Fatalf("Via rows = %d, direct rows = %d", len(via), len(direct))
	}
	for i := range direct {
		if direct[i].Licensee != via[i].Licensee || direct[i].Latency != via[i].Latency ||
			direct[i].APA != via[i].APA {
			t.Errorf("row %d differs: %+v vs %+v", i, direct[i], via[i])
		}
	}
}
