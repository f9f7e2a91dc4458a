package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// Endpoint names, in the order the catalogue interleaves them.
const (
	epSnapshot  = "snapshot"
	epRank      = "rank"
	epAPA       = "apa"
	epEvolution = "evolution"
	epWatch     = "watch"
)

var endpoints = []string{epSnapshot, epRank, epAPA, epEvolution, epWatch}

// Query is one API request, kept structured so the traced run can
// replay it through the analysis calls without re-parsing its URL.
type Query struct {
	Endpoint string `json:"endpoint"`
	Date     string `json:"date,omitempty"`
	Path     string `json:"path,omitempty"`
	Top      int    `json:"top,omitempty"`
	Licensee string `json:"licensee,omitempty"`
	From     int    `json:"from,omitempty"`
	To       int    `json:"to,omitempty"`
}

// URI renders the query as the request URI the service parses.
func (q Query) URI() string {
	v := url.Values{}
	switch q.Endpoint {
	case epSnapshot, epAPA:
		v.Set("date", q.Date)
		v.Set("path", q.Path)
	case epRank:
		v.Set("date", q.Date)
		if q.Top > 0 {
			v.Set("top", strconv.Itoa(q.Top))
		}
	case epEvolution, epWatch:
		v.Set("licensee", q.Licensee)
		v.Set("path", q.Path)
		v.Set("from", strconv.Itoa(q.From))
		v.Set("to", strconv.Itoa(q.To))
		if q.Endpoint == epWatch {
			v.Set("speed", "0")
		}
	}
	return "/v1/" + q.Endpoint + "?" + v.Encode()
}

// Request is one scheduled send: a query due at an offset from the
// start of its phase.
type Request struct {
	Seq   int     `json:"seq"`
	DueMs float64 `json:"due_ms"`
	Query Query   `json:"query"`
}

// Phase is one stretch of open-loop traffic at a fixed offered rate.
type Phase struct {
	Name     string    `json:"name"`
	Rate     float64   `json:"rate_rps"`
	Seconds  float64   `json:"seconds"`
	Requests []Request `json:"requests"`
}

// Schedule is everything a run sends, generated from the seed and
// written next to the corpora so the run can be replayed exactly.
type Schedule struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Warmup   []Query `json:"warmup"`
	Phases   []Phase `json:"phases"`
}

// Workload is the static shape of one traffic mix.
type Workload struct {
	Name string
	// Rate is the fixed offered rate of the first phase; Ladder the
	// offered rates climbed afterwards to find max_rps_at_slo.
	Rate   float64
	Ladder []float64
	// SLOms is the tail-latency limit of max_rps_at_slo.
	SLOms float64
	// FleetPass adds the fleet pass (front, pull replica, corpus
	// churn) to the traced run.
	FleetPass bool
	gen       func(rng *rand.Rand) func(n int) []Query
	warmup    func(fill func(n int) []Query) []Query
}

var workloads = map[string]Workload{
	"hot-repeat": {
		Name: "hot-repeat", SLOms: 250, Rate: 40, Ladder: geometric(100, 1.1, 15),
		FleetPass: true, gen: zipfCatalogue, warmup: hotWarmup,
	},
	"unique-sweep": {
		Name: "unique-sweep", SLOms: 250, Rate: 20, Ladder: geometric(80, 1.15, 12),
		gen: uniqueSweep, warmup: func(fill func(n int) []Query) []Query { return fill(40) },
	},
}

// geometric is an offered-rate ladder of n rungs from lo, each step
// the factor above the last.
func geometric(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(lo*math.Pow(factor, float64(i))*10) / 10
	}
	return out
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// catalogueDates are the paper sample dates the hot mixes query.
var catalogueDates = []string{"2014-06-01", "2015-06-01", "2016-06-01", "2017-06-01",
	"2018-06-01", "2019-06-01", "2020-04-01"}

// hftLicensees are the corridor networks of Tables 1–2 plus the hidden
// joint-filing pair; the evolution and watch queries draw from them.
var hftLicensees = []string{synth.NLN, synth.PB, synth.JM, synth.BC, synth.WH,
	synth.AQ2AT, synth.WI, synth.GTT, synth.SW, synth.NTC, synth.JointA, synth.JointB}

// catalogue is the fixed hot query set (58 queries over all five
// endpoints), interleaved across endpoints so every Zipf rank band
// holds a mix of them. Its order is the popularity order.
func catalogue() []Query {
	byEP := map[string][]Query{}
	for _, d := range catalogueDates {
		for _, p := range sites.CorridorPaths() {
			byEP[epSnapshot] = append(byEP[epSnapshot], Query{Endpoint: epSnapshot, Date: d, Path: p.Name()})
		}
		byEP[epRank] = append(byEP[epRank], Query{Endpoint: epRank, Date: d, Top: 3})
		byEP[epAPA] = append(byEP[epAPA], Query{Endpoint: epAPA, Date: d, Path: "CME-NY4"})
	}
	byEP[epRank] = append(byEP[epRank], Query{Endpoint: epRank, Date: "2020-04-01"})
	byEP[epAPA] = append(byEP[epAPA],
		Query{Endpoint: epAPA, Date: "2020-04-01", Path: "CME-NYSE"},
		Query{Endpoint: epAPA, Date: "2020-04-01", Path: "CME-NASDAQ"})
	for _, l := range hftLicensees[:6] {
		for _, from := range []int{2013, 2016} {
			byEP[epEvolution] = append(byEP[epEvolution],
				Query{Endpoint: epEvolution, Licensee: l, Path: "CME-NY4", From: from, To: 2020})
		}
	}
	for _, l := range hftLicensees[:4] {
		for _, from := range []int{2014, 2017} {
			byEP[epWatch] = append(byEP[epWatch],
				Query{Endpoint: epWatch, Licensee: l, Path: "CME-NY4", From: from, To: 2020})
		}
	}
	var out []Query
	for i := 0; ; i++ {
		added := false
		for _, ep := range endpoints {
			if i < len(byEP[ep]) {
				out = append(out, byEP[ep][i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// hotWarmup is the whole catalogue once, so every engine lookup of the
// measured phases is a memo hit.
func hotWarmup(func(n int) []Query) []Query { return catalogue() }

// zipfS is the skew of the hot mixes' popularity over catalogue rank.
const zipfS = 1.1

// apportion splits n into integer counts proportional to weights
// (largest remainder), so a phase's mix is the same for every seed.
func apportion(weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := n
	for i, w := range weights {
		counts[i] = int(float64(n) * w / total)
		left -= counts[i]
		rem[i] = i
	}
	frac := func(i int) float64 { return float64(n)*weights[i]/total - float64(counts[i]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// zipfCatalogue fills a phase with catalogue entries. Every endpoint
// gets an equal share, so each per-endpoint median rests on as many
// samples as the others; within an endpoint its entries are in Zipf
// proportions by their catalogue rank. The counts are fixed, the seed
// only shuffles their order.
func zipfCatalogue(rng *rand.Rand) func(n int) []Query {
	cat := catalogue()
	weights := make([]float64, len(cat))
	rank, total := map[string]int{}, map[string]float64{}
	for k, q := range cat {
		rank[q.Endpoint]++
		weights[k] = math.Pow(float64(rank[q.Endpoint]), -zipfS)
		total[q.Endpoint] += weights[k]
	}
	for k, q := range cat {
		weights[k] /= total[q.Endpoint]
	}
	return func(n int) []Query {
		var out []Query
		for k, c := range apportion(weights, n) {
			for ; c > 0; c-- {
				out = append(out, cat[k])
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// uniqueMix is the endpoint mix of unique-sweep.
var uniqueMix = []float64{0.30, 0.20, 0.20, 0.15, 0.15} // in endpoints order

// uniqueSweep fills a phase with queries that never repeat within a
// run. Each endpoint's dates are drawn without replacement from the
// 2013–2020 daily grid, one from each of as many equal strata as the
// endpoint has requests; snapshot and APA paths cycle through every
// ordered data-centre pair, and evolution and watch licensees through
// the corridor networks, in seeded orders; evolution and watch paths
// and year ranges are random (redrawn on a collision, from 5,184
// combinations per endpoint). At the 60 s a run may last, a run draws
// about 2,000 of the grid's 2,922 dates and 440 of the combinations.
func uniqueSweep(rng *rand.Rand) func(n int) []Query {
	var dates []string
	for d := uls.NewDate(2013, time.January, 1); !d.After(uls.NewDate(2020, time.December, 31)); d = d.AddDays(1) {
		dates = append(dates, d.String())
	}
	var paths []string
	for _, a := range sites.All {
		for _, b := range sites.All {
			if a.Code != b.Code {
				paths = append(paths, a.Code+"-"+b.Code)
			}
		}
	}
	cycle := func(items []string) func() string {
		order := rng.Perm(len(items))
		i := 0
		return func() string {
			v := items[order[i%len(items)]]
			i++
			return v
		}
	}
	nextPath, nextLicensee := cycle(paths), cycle(hftLicensees)
	used := map[string]bool{}
	// dateIn draws an unused date from stratum k of m, falling back to
	// the next unused date after it.
	dateIn := func(k, m int) string {
		lo, hi := k*len(dates)/m, (k+1)*len(dates)/m
		i := lo + rng.IntN(max(1, hi-lo))
		for end := i + len(dates); used[dates[i%len(dates)]]; i++ {
			if i == end {
				panic("servebench: unique-sweep ran out of dates")
			}
		}
		d := dates[i%len(dates)]
		used[d] = true
		return d
	}
	seen := map[string]bool{}
	return func(n int) []Query {
		var out []Query
		for e, c := range apportion(uniqueMix, n) {
			ep := endpoints[e]
			for k := 0; k < c; k++ {
				q := Query{Endpoint: ep}
				switch ep {
				case epSnapshot, epAPA:
					q.Date, q.Path = dateIn(k, c), nextPath()
				case epRank:
					q.Date, q.Top = dateIn(k, c), k%4
				default:
					q.Licensee = nextLicensee()
					for {
						q.Path = paths[rng.IntN(len(paths))]
						q.From = 2013 + rng.IntN(8)
						q.To = q.From + rng.IntN(2021-q.From)
						if !seen[q.URI()] {
							break
						}
					}
				}
				seen[q.URI()] = true
				out = append(out, q)
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// arrivals returns n due offsets (ms) over a window: a Poisson process
// conditioned on its count, i.e. sorted uniform draws. Fixing the count
// keeps the offered load of a phase identical across seeds.
func arrivals(rng *rand.Rand, n int, seconds float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * seconds * 1e3
	}
	sort.Float64s(out)
	return out
}

// churnEvery is the corpus publish period (s) of the traced fleet pass.
const churnEvery = 3.0

// churn lists publish offsets (s) every churnEvery seconds of a window.
func churn(seconds float64) []float64 {
	var out []float64
	for t := churnEvery / 2; t < seconds; t += churnEvery {
		out = append(out, t)
	}
	return out
}

// evenly returns n due offsets (ms) spaced 1/rate apart: a rung's
// offered rate without arrival bursts, so the ladder finds where the
// service, not one short burst, stops keeping up.
func evenly(n int, rate float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * 1e3 / rate
	}
	return out
}

// fixedShare is the part of the measured seconds given to the
// fixed-rate phase; the ladder takes the rest.
const fixedShare = 0.75

// makeSchedule builds a workload's full request schedule from the
// seed. The fixed phase has Poisson arrivals; every ladder rung holds
// the same number of evenly spaced requests, so every rung's SLO check
// reads the same tail percentile.
func makeSchedule(w Workload, seed uint64, seconds float64) *Schedule {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e_b4c4))
	fill := w.gen(rng)
	s := &Schedule{Workload: w.Name, Seed: seed, Warmup: w.warmup(fill)}
	seq := 0
	add := func(name string, rate float64, n int, dues []float64) {
		ph := Phase{Name: name, Rate: rate, Seconds: float64(n) / rate}
		qs := fill(n)
		for i, due := range dues {
			ph.Requests = append(ph.Requests, Request{Seq: seq, DueMs: due, Query: qs[i]})
			seq++
		}
		s.Phases = append(s.Phases, ph)
	}
	nFixed := int(math.Round(w.Rate * seconds * fixedShare))
	add("fixed", w.Rate, nFixed, arrivals(rng, nFixed, float64(nFixed)/w.Rate))
	inv := 0.0
	for _, r := range w.Ladder {
		inv += 1 / r
	}
	n := int(seconds * (1 - fixedShare) / inv)
	for i, r := range w.Ladder {
		add(fmt.Sprintf("rung-%d", i), r, n, evenly(n, r))
	}
	return s
}

// phaseStarts returns each phase's offset (ms) on the measured timeline.
func (s *Schedule) phaseStarts() []float64 {
	out := make([]float64, len(s.Phases))
	t := 0.0
	for i, ph := range s.Phases {
		out[i] = t
		t += ph.Seconds * 1e3
	}
	return out
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readSchedule(dir string) (*Schedule, error) {
	b, err := os.ReadFile(filepath.Join(dir, "schedule.json"))
	if err != nil {
		return nil, err
	}
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("schedule.json: %w", err)
	}
	return &s, nil
}

// corpusVariants returns the two corpora a run may serve: variant 0 is
// the synthetic corridor corpus; variant 1 drops a seeded ~8% of the
// licenses outside New Line Networks (whose CME–NY4 route anchors the
// output check), so the two differ in a minority of licenses.
func corpusVariants(seed uint64) ([2]*uls.Database, error) {
	a, err := synth.Generate()
	if err != nil {
		return [2]*uls.Database{}, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xc0de))
	var keep []*uls.License
	for _, l := range a.All() {
		if l.Licensee == synth.NLN || rng.Float64() >= 0.08 {
			keep = append(keep, l)
		}
	}
	b := uls.NewDatabase()
	if err := b.AddBulk(keep, uls.BulkAddOptions{TrustValidated: true}); err != nil {
		return [2]*uls.Database{}, err
	}
	return [2]*uls.Database{a, b}, nil
}

func corpusFile(dir string, variant int) string {
	return filepath.Join(dir, fmt.Sprintf("corpus-%d.uls", variant))
}

// writeCorpora generates both corpus variants and writes them as bulk
// files into dir.
func writeCorpora(dir string, seed uint64) error {
	dbs, err := corpusVariants(seed)
	if err != nil {
		return err
	}
	for i, db := range dbs {
		if err := writeBulkFile(corpusFile(dir, i), db); err != nil {
			return err
		}
	}
	return nil
}

// writeBulkFile writes db atomically (temp file + rename), so a
// reloading server never reads a half-written corpus.
func writeBulkFile(path string, db *uls.Database) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := uls.WriteBulk(f, db); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readCorpus ingests a bulk file exactly as the service does (salvage
// (lenient) mode under the default error budget, then the repairing integrity
// pass), so the oracle sees the corpus the server serves.
func readCorpus(path string) (*uls.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, _, err := uls.ReadBulkWithOptions(f, uls.ReadBulkOptions{Mode: uls.Lenient, MaxErrorRate: 0.05})
	if err != nil {
		return nil, fmt.Errorf("ingesting %s: %w", path, err)
	}
	uls.Validate(db, uls.ValidateOptions{Repair: true})
	return db, nil
}
