package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/entity"
	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// The canonical forms below are the parts of each response body that
// the analysis determines. Process-local fields (generation ids,
// geodesic constants) are left out, so one canonical form serves the
// HTTP bodies of every process and the in-process replay alike.

type netRow struct {
	Licensee string  `json:"licensee"`
	Latency  float64 `json:"latency_us"`
	APA      float64 `json:"apa"`
	Towers   int     `json:"towers"`
	Hops     int     `json:"hops"`
}

type snapshotCanon struct {
	Networks []netRow `json:"networks"`
}

type rankCanon struct {
	Paths []struct {
		Path   string   `json:"path"`
		Ranked []netRow `json:"ranked"`
	} `json:"paths"`
}

type evoPoint struct {
	Date      string  `json:"date"`
	Connected bool    `json:"connected"`
	Latency   float64 `json:"latency_us"`
	Active    int     `json:"active_licenses"`
}

type evolutionCanon struct {
	Points []evoPoint `json:"points"`
}

type apaCanon struct {
	Networks []struct {
		Licensee string  `json:"licensee"`
		APA      float64 `json:"apa"`
		Latency  float64 `json:"latency_us"`
	} `json:"networks"`
	Complementary []struct {
		Pair    string  `json:"pair"`
		Latency float64 `json:"latency_us"`
	} `json:"complementary_pairs"`
}

// watchCanon is a replay's shape and end state: how many diff frames
// it had and the network state its last frame reports.
type watchCanon struct {
	Diffs int      `json:"diffs"`
	Final evoPoint `json:"final"`
}

func rowsOf(rows []core.NetworkSummary) []netRow {
	out := make([]netRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, netRow{Licensee: r.Licensee, Latency: r.Latency.Microseconds(),
			APA: r.APA, Towers: r.TowerCount, Hops: r.HopCount})
	}
	return out
}

func parseQueryPath(s string) (sites.Path, error) {
	from, to, _ := strings.Cut(s, "-")
	a, okA := sites.ByCode(from)
	b, okB := sites.ByCode(to)
	if !okA || !okB {
		return sites.Path{}, fmt.Errorf("bad path %q", s)
	}
	return sites.Path{From: a, To: b}, nil
}

// watchWindow mirrors the service's replay window: 1 January of from
// to 31 December of to, or the paper snapshot date from 2020 on.
func watchWindow(from, to int) (uls.Date, uls.Date) {
	start := uls.NewDate(from, time.January, 1)
	end := uls.NewDate(to, time.December, 31)
	if to >= 2020 {
		end = uls.NewDate(2020, time.April, 1)
	}
	return start, end
}

// watchSteps lists the distinct event dates a replay visits.
func watchSteps(db *uls.Database, licensee string, start, end uls.Date) []uls.Date {
	var out []uls.Date
	for _, ev := range db.EventLog().Events(licensee) {
		if !ev.Date.After(start) || ev.Date.After(end) {
			continue
		}
		if n := len(out); n == 0 || !out[n-1].Equal(ev.Date) {
			out = append(out, ev.Date)
		}
	}
	return out
}

// spanFunc wraps one analysis call; the traced replay records a span
// around it, the oracle runs it bare.
type spanFunc func(name string, f func() error) error

func bare(_ string, f func() error) error { return f() }

// answer computes a query's canonical result over p, running each
// analysis call through wrap. With replay set, a watch query rebuilds
// and diffs every frame the way the service's replay does; without it
// (the oracle), only the end state is rebuilt.
func answer(p core.SnapshotProvider, q Query, wrap spanFunc, replay bool) ([]byte, error) {
	opts := core.DefaultOptions()
	var date uls.Date
	if q.Date != "" {
		d, err := uls.ParseDate(q.Date)
		if err != nil {
			return nil, err
		}
		date = d
	}
	var path sites.Path
	if q.Path != "" {
		pp, err := parseQueryPath(q.Path)
		if err != nil {
			return nil, err
		}
		path = pp
	}
	var out any
	var err error
	switch q.Endpoint {
	case epSnapshot:
		var rows []core.NetworkSummary
		err = wrap("core.connected", func() (e error) {
			rows, e = core.ConnectedNetworksVia(p, date, path, opts)
			return e
		})
		out = snapshotCanon{Networks: rowsOf(rows)}
	case epRank:
		var ranks []core.PathRanking
		err = wrap("core.rank", func() (e error) {
			ranks, e = core.RankNetworksVia(p, date, sites.CorridorPaths(), q.Top, opts)
			return e
		})
		var c rankCanon
		for _, pr := range ranks {
			c.Paths = append(c.Paths, struct {
				Path   string   `json:"path"`
				Ranked []netRow `json:"ranked"`
			}{pr.Path.Name(), rowsOf(pr.Ranked)})
		}
		out = c
	case epAPA:
		var rows []core.NetworkSummary
		var pairs []entity.Pair
		err = wrap("core.connected", func() (e error) {
			rows, e = core.ConnectedNetworksVia(p, date, path, opts)
			return e
		})
		if err == nil {
			err = wrap("entity.pairs", func() (e error) {
				pairs, e = entity.ComplementaryPairsVia(p, date, path, nil, opts)
				return e
			})
		}
		c := apaCanon{}
		c.Networks = make([]struct {
			Licensee string  `json:"licensee"`
			APA      float64 `json:"apa"`
			Latency  float64 `json:"latency_us"`
		}, 0, len(rows))
		c.Complementary = make([]struct {
			Pair    string  `json:"pair"`
			Latency float64 `json:"latency_us"`
		}, 0, len(pairs))
		for _, r := range rows {
			c.Networks = append(c.Networks, struct {
				Licensee string  `json:"licensee"`
				APA      float64 `json:"apa"`
				Latency  float64 `json:"latency_us"`
			}{r.Licensee, r.APA, r.Latency.Microseconds()})
		}
		for _, pr := range pairs {
			c.Complementary = append(c.Complementary, struct {
				Pair    string  `json:"pair"`
				Latency float64 `json:"latency_us"`
			}{pr.A + " + " + pr.B, pr.Latency.Microseconds()})
		}
		out = c
	case epEvolution:
		var pts []core.EvolutionPoint
		err = wrap("core.evolution", func() (e error) {
			pts, e = core.EvolutionVia(p, q.Licensee, path, core.PaperSampleDates(q.From, q.To), opts)
			return e
		})
		c := evolutionCanon{Points: []evoPoint{}}
		for _, pt := range pts {
			ep := evoPoint{Date: pt.Date.String(), Connected: pt.Connected, Active: pt.ActiveLicenses}
			if pt.Connected {
				ep.Latency = pt.Latency.Microseconds()
			}
			c.Points = append(c.Points, ep)
		}
		out = c
	case epWatch:
		var c watchCanon
		err = wrap("core.watch", func() (e error) {
			c, e = watchAnswer(p, q.Licensee, path, q.From, q.To, replay)
			return e
		})
		out = c
	default:
		return nil, fmt.Errorf("unknown endpoint %q", q.Endpoint)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

func watchAnswer(p core.SnapshotProvider, licensee string, path sites.Path, from, to int, replay bool) (watchCanon, error) {
	db := p.DB()
	start, end := watchWindow(from, to)
	steps := watchSteps(db, licensee, start, end)
	snap := func(d uls.Date) (*core.Network, error) {
		return p.Snapshot(core.SnapshotRequest{Licensees: []string{licensee}, Date: d,
			DCs: []sites.DataCenter{path.From, path.To}, Opts: core.DefaultOptions()})
	}
	final := start
	if len(steps) > 0 {
		final = steps[len(steps)-1]
	}
	var last *core.Network
	if replay {
		prev, err := snap(start)
		if err != nil {
			return watchCanon{}, err
		}
		last = prev
		for _, d := range steps {
			cur, err := snap(d)
			if err != nil {
				return watchCanon{}, err
			}
			core.DiffNetworks(prev, cur)
			prev, last = cur, cur
		}
	} else {
		n, err := snap(final)
		if err != nil {
			return watchCanon{}, err
		}
		last = n
	}
	c := watchCanon{Diffs: len(steps), Final: evoPoint{Date: final.String(),
		Active: db.EventLog().ActiveCount(licensee, final)}}
	if r, ok := last.BestRoute(path); ok {
		c.Final.Connected, c.Final.Latency = true, r.Latency.Microseconds()
	}
	return c, nil
}

// canonBody decodes a 200 response body into the endpoint's canonical
// form.
func canonBody(endpoint string, body []byte) ([]byte, error) {
	var v any
	switch endpoint {
	case epSnapshot:
		v = &snapshotCanon{}
	case epRank:
		v = &rankCanon{}
	case epAPA:
		v = &apaCanon{}
	case epEvolution:
		v = &evolutionCanon{}
	case epWatch:
		c, err := parseWatch(body)
		if err != nil {
			return nil, err
		}
		return json.Marshal(c)
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// parseWatch checks an SSE replay's framing — hello, snapshot, as many
// diffs as hello announced, eof, with contiguous sequence numbers —
// and returns its canonical end state.
func parseWatch(body []byte) (watchCanon, error) {
	type frame struct {
		seq   int64
		event string
		data  []byte
	}
	var frames []frame
	var cur frame
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = frame{}
		case strings.HasPrefix(line, "id: "):
			_, seq, _ := strings.Cut(strings.TrimPrefix(line, "id: "), ".")
			n, err := strconv.ParseInt(seq, 10, 64)
			if err != nil {
				return watchCanon{}, fmt.Errorf("bad frame id %q", line)
			}
			cur.seq = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if len(frames) < 3 || frames[0].event != "hello" || frames[1].event != "snapshot" ||
		frames[len(frames)-1].event != "eof" {
		return watchCanon{}, fmt.Errorf("watch stream is not hello, snapshot, diffs, eof (%d frames)", len(frames))
	}
	var hello struct {
		Diffs int `json:"diffs"`
	}
	if err := json.Unmarshal(frames[0].data, &hello); err != nil {
		return watchCanon{}, err
	}
	c := watchCanon{}
	for i, f := range frames {
		if f.seq != int64(i) {
			return watchCanon{}, fmt.Errorf("watch frame %d has seq %d", i, f.seq)
		}
		if f.event == "diff" {
			c.Diffs++
		}
		if f.event == "snapshot" || f.event == "diff" {
			c.Final = evoPoint{}
			if err := json.Unmarshal(f.data, &c.Final); err != nil {
				return watchCanon{}, err
			}
		}
	}
	if c.Diffs != hello.Diffs || c.Diffs != len(frames)-3 {
		return watchCanon{}, fmt.Errorf("watch stream has %d diffs, hello announced %d", c.Diffs, hello.Diffs)
	}
	return c, nil
}

// anchorLatencyUs is New Line Networks' CME–NY4 latency on the paper
// snapshot date (Table 1's first row), which every corpus variant keeps.
const anchorLatencyUs = 3961.7

// checkAnchor verifies that a canonical default snapshot (2020-04-01,
// CME-NY4) leads with New Line Networks at the Table 1 latency.
func checkAnchor(canon []byte) error {
	var c snapshotCanon
	if err := json.Unmarshal(canon, &c); err != nil {
		return err
	}
	if len(c.Networks) == 0 || c.Networks[0].Licensee != synth.NLN ||
		math.Abs(c.Networks[0].Latency-anchorLatencyUs) > 0.05 {
		return fmt.Errorf("anchor check: want %s first at %.1f µs, got %+v", synth.NLN, anchorLatencyUs, c.Networks[:min(1, len(c.Networks))])
	}
	return nil
}
