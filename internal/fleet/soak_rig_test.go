package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/store"
)

// The audit half shared by the E-series fleet soaks (E21 soak_test.go,
// E23 membership_soak_test.go, E24 heal_soak_test.go): a log of what
// the fleet's source published, and the check every client runs on
// every response. Each soak keeps its own cadences, queries, client
// loop, staleness slack and end-of-drill assertions.

// publishLog records every generation a soak's source published. It
// maps each id to the SET of corpus digests ever published under it:
// after a promotion (E24) the new source's branch legitimately reuses
// ids the dead source's unshipped tail also used, and a 200 carrying
// either digest is correct. A single source (E21, E23) never repeats
// an id, so each set holds one digest. latest is the newest id
// recorded, kept as a CAS max so concurrent recorders never move it
// backwards.
type publishLog struct {
	mu     sync.Mutex
	byID   map[int64]map[string]bool
	latest atomic.Int64
}

func newPublishLog() *publishLog {
	return &publishLog{byID: make(map[int64]map[string]bool)}
}

func (l *publishLog) record(gi *store.GenInfo) {
	l.mu.Lock()
	if l.byID[gi.ID] == nil {
		l.byID[gi.ID] = make(map[string]bool)
	}
	l.byID[gi.ID][gi.CorpusSHA256] = true
	l.mu.Unlock()
	for {
		cur := l.latest.Load()
		if gi.ID <= cur || l.latest.CompareAndSwap(cur, gi.ID) {
			return
		}
	}
}

func (l *publishLog) published(id int64, digest string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byID[id][digest]
}

// audit checks one client response against the invariants every fleet
// soak enforces, returning nil for a well-formed response:
//
//   - the error surface is exactly {200, 503 + Retry-After};
//   - a 200 names a positive X-Corpus-Generation, and its
//     X-Corpus-Digest was published under that id: a corrupted
//     shipment that slipped through verification would show up here;
//   - a 200 is at most bound+slack generations behind lo, the newest
//     published id the client saw before sending the request (slack
//     covers publishes mid-flight and probe lag).
func (l *publishLog) audit(resp *http.Response, lo, bound, slack int64) error {
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			return fmt.Errorf("503 without Retry-After")
		}
		return nil
	default:
		return fmt.Errorf("client saw status %d — the error surface must be exactly {200, 503}", resp.StatusCode)
	}
	genHdr := resp.Header.Get("X-Corpus-Generation")
	gen, err := strconv.ParseInt(genHdr, 10, 64)
	if err != nil || gen <= 0 {
		return fmt.Errorf("200 with bad X-Corpus-Generation %q", genHdr)
	}
	if digest := resp.Header.Get("X-Corpus-Digest"); !l.published(gen, digest) {
		return fmt.Errorf("200 served generation %d with digest %q, never published under that id — wrong corpus went live", gen, digest)
	}
	if gen < lo-(bound+slack) {
		return fmt.Errorf("response generation %d beyond staleness budget (newest published was %d, bound %d, slack %d)", gen, lo, bound, slack)
	}
	return nil
}

// newSoakPrimary is the publishing primary of E21 and E23: a store
// seeded with one generation, recorded in a fresh publish log, and
// shipped over HTTP. Both close when the test ends.
func newSoakPrimary(t *testing.T, seed string) (*store.Store, *publishLog, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.WithSegmentTarget(32<<10), store.WithBlockLicenses(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	gi, err := st.Save(corpus(t), seed)
	if err != nil {
		t.Fatal(err)
	}
	pub := newPublishLog()
	pub.record(gi)
	srv := httptest.NewServer(NewShipper(st))
	t.Cleanup(srv.Close)
	return st, pub, srv
}

// publish saves a fresh generation into st on every tick of every,
// records it, and GCs st down to 4 generations, until ctx ends.
// GC races replica pulls by design: a swept generation must surface to
// pullers as a clean retry, never a bad install. Ticks while paused
// is set publish nothing.
func (l *publishLog) publish(ctx context.Context, t *testing.T, st *store.Store, every time.Duration, paused *atomic.Bool, label string) {
	for n := 1; ; n++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
		if paused.Load() {
			continue
		}
		gi, err := st.Save(corpus(t), fmt.Sprintf("%s %d", label, n))
		if err != nil {
			t.Errorf("publisher save %d: %v", n, err)
			return
		}
		l.record(gi)
		if _, err := st.GC(4); err != nil {
			t.Errorf("publisher gc: %v", err)
			return
		}
	}
}

// TestSoakAudit feeds the shared auditor each response kind a soak
// must flag, plus the well-formed ones it must pass.
func TestSoakAudit(t *testing.T) {
	pub := newPublishLog()
	pub.record(&store.GenInfo{ID: 5, CorpusSHA256: "d5"})
	pub.record(&store.GenInfo{ID: 9, CorpusSHA256: "d9"})
	pub.record(&store.GenInfo{ID: 9, CorpusSHA256: "d9-promoted"})
	pub.record(&store.GenInfo{ID: 6, CorpusSHA256: "d6"}) // a late recorder
	if got := pub.latest.Load(); got != 9 {
		t.Fatalf("latest = %d, want the CAS max 9", got)
	}

	const lo, bound, slack = 9, 1, 2 // oldest acceptable generation: 6
	resp := func(status int, kv ...string) *http.Response {
		h := http.Header{}
		for i := 0; i+1 < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return &http.Response{StatusCode: status, Header: h}
	}
	for _, tc := range []struct {
		name string
		resp *http.Response
		ok   bool
	}{
		{"200 published", resp(200, "X-Corpus-Generation", "9", "X-Corpus-Digest", "d9"), true},
		{"200 promoted branch", resp(200, "X-Corpus-Generation", "9", "X-Corpus-Digest", "d9-promoted"), true},
		{"200 at the slack edge", resp(200, "X-Corpus-Generation", "6", "X-Corpus-Digest", "d6"), true},
		{"503 with Retry-After", resp(503, "Retry-After", "1"), true},
		{"500", resp(500), false},
		{"503 without Retry-After", resp(503), false},
		{"200 missing generation", resp(200, "X-Corpus-Digest", "d9"), false},
		{"200 zero generation", resp(200, "X-Corpus-Generation", "0", "X-Corpus-Digest", "d9"), false},
		{"200 unpublished digest", resp(200, "X-Corpus-Generation", "9", "X-Corpus-Digest", "d5"), false},
		{"200 unpublished generation", resp(200, "X-Corpus-Generation", "8", "X-Corpus-Digest", "d9"), false},
		{"200 beyond the slack", resp(200, "X-Corpus-Generation", "5", "X-Corpus-Digest", "d5"), false},
	} {
		err := pub.audit(tc.resp, lo, bound, slack)
		if tc.ok && err != nil {
			t.Errorf("%s: flagged a well-formed response: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: not reported", tc.name)
		}
	}
}
