package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestPathsWithinDiamond(t *testing.T) {
	// src -1- m1 -1- dst  and  src -2- m2 -2- dst, plus m1 -0.5- m2.
	g := New()
	src, dst := g.EnsureNode("s"), g.EnsureNode("d")
	m1, m2 := g.EnsureNode("m1"), g.EnsureNode("m2")
	g.AddEdge(src, m1, 1)
	g.AddEdge(m1, dst, 1)
	g.AddEdge(src, m2, 2)
	g.AddEdge(m2, dst, 2)
	g.AddEdge(m1, m2, 0.5)

	paths, trunc := g.PathsWithin(src, dst, EnumerateOptions{Bound: 4})
	if trunc {
		t.Fatal("unexpected truncation")
	}
	// Within 4: s-m1-d (2), s-m1-m2-d (3.5), s-m2-d (4), s-m2-m1-d (3.5).
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4; got %+v", len(paths), paths)
	}
	for _, p := range paths {
		if p.Weight > 4 {
			t.Errorf("path exceeds bound: %+v", p)
		}
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path revisits node: %+v", p)
			}
			seen[n] = true
		}
	}

	paths, _ = g.PathsWithin(src, dst, EnumerateOptions{Bound: 2})
	if len(paths) != 1 || paths[0].Weight != 2 {
		t.Errorf("bound 2: %d paths, want only the shortest", len(paths))
	}

	paths, _ = g.PathsWithin(src, dst, EnumerateOptions{Bound: 1})
	if len(paths) != 0 {
		t.Errorf("bound below shortest: got %d paths", len(paths))
	}
}

func TestPathsWithinUnreachable(t *testing.T) {
	g := New()
	a, b := g.EnsureNode("a"), g.EnsureNode("b")
	paths, trunc := g.PathsWithin(a, b, EnumerateOptions{Bound: 100})
	if len(paths) != 0 || trunc {
		t.Errorf("unreachable: %d paths, trunc=%v", len(paths), trunc)
	}
}

func TestPathsWithinTruncation(t *testing.T) {
	// A ladder has exponentially many simple paths; cap at 5.
	g, src, dst := ladderGraph(t, 8, 1, 0.1)
	paths, trunc := g.PathsWithin(src, dst, EnumerateOptions{Bound: 100, MaxPaths: 5})
	if !trunc {
		t.Error("want truncation with MaxPaths=5")
	}
	if len(paths) != 5 {
		t.Errorf("paths = %d, want 5", len(paths))
	}
}

func TestPathsWithinPruningEquivalence(t *testing.T) {
	// Pruned and unpruned enumeration must agree on the path *set*.
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 10; trial++ {
		g := New()
		n := 12
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.EnsureNode(fmt.Sprintf("n%d", i))
		}
		for e := 0; e < 25; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 1+rng.Float64()*3)
		}
		src, dst := ids[0], ids[n-1]
		sp, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		bound := sp.Weight * 1.5
		p1, t1 := g.PathsWithin(src, dst, EnumerateOptions{Bound: bound})
		p2, t2 := g.PathsWithin(src, dst, EnumerateOptions{Bound: bound, DisablePruning: true})
		if t1 || t2 {
			continue
		}
		if len(p1) != len(p2) {
			t.Fatalf("trial %d: pruned=%d unpruned=%d paths", trial, len(p1), len(p2))
		}
		key := func(p Path) string { return fmt.Sprint(p.Nodes) }
		set := map[string]bool{}
		for _, p := range p1 {
			set[key(p)] = true
		}
		for _, p := range p2 {
			if !set[key(p)] {
				t.Fatalf("trial %d: unpruned found path missing from pruned: %v", trial, p.Nodes)
			}
		}
	}
}

func TestEdgeRemovalChainHasZeroAPA(t *testing.T) {
	g, ids := lineGraph(t, 10)
	src, dst := ids[0], ids[10]
	if apa := g.APA(src, dst, 100); apa != 0 {
		t.Errorf("chain APA = %v, want 0", apa)
	}
	res := g.EdgeRemovalAnalysis(src, dst, 100)
	for _, r := range res {
		if r.WithinBound || !math.IsInf(r.Latency, 1) {
			t.Errorf("chain edge %d: %+v, want disconnected", r.Edge, r)
		}
	}
}

func TestEdgeRemovalLadderHasHighAPA(t *testing.T) {
	// Cheap rungs: removing any single rail edge leaves a detour through
	// the other rail at small extra cost.
	g, src, dst := ladderGraph(t, 6, 1, 0.05)
	sp, _ := g.ShortestPath(src, dst)
	apa := g.APA(src, dst, sp.Weight*1.6)
	if apa != 1 {
		t.Errorf("ladder APA = %v, want 1 (every edge has an alternate)", apa)
	}
}

func TestEdgeRemovalAsymmetricLadderTightBound(t *testing.T) {
	// Rail A is the fast rail; rail B is 20% slower. Under a tight bound,
	// removing a fast-rail edge forces a detour that violates the bound,
	// so tight-bound APA is strictly below loose-bound APA.
	g := New()
	src, dst := g.EnsureNode("s"), g.EnsureNode("d")
	k := 5
	as := make([]NodeID, k)
	bs := make([]NodeID, k)
	for i := 0; i < k; i++ {
		as[i] = g.EnsureNode(fmt.Sprintf("A%d", i))
		bs[i] = g.EnsureNode(fmt.Sprintf("B%d", i))
	}
	g.AddEdge(src, as[0], 1)
	g.AddEdge(src, bs[0], 1.2)
	for i := 0; i < k-1; i++ {
		g.AddEdge(as[i], as[i+1], 1)
		g.AddEdge(bs[i], bs[i+1], 1.2)
	}
	for i := 0; i < k; i++ {
		g.AddEdge(as[i], bs[i], 0.05)
	}
	g.AddEdge(as[k-1], dst, 1)
	g.AddEdge(bs[k-1], dst, 1.2)

	sp, ok := g.ShortestPath(src, dst)
	if !ok || sp.Weight != 6 {
		t.Fatalf("shortest = %+v, want weight 6 on fast rail", sp)
	}
	loose := g.APA(src, dst, sp.Weight*1.6)
	tight := g.APA(src, dst, sp.Weight*1.01)
	if loose != 1 {
		t.Errorf("loose APA = %v, want 1", loose)
	}
	if tight >= loose {
		t.Errorf("tight-bound APA %v should be < loose-bound APA %v", tight, loose)
	}
}

func TestEdgeRemovalFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 15
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.EnsureNode(fmt.Sprintf("n%d", i))
		}
		for e := 0; e < 35; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.5+rng.Float64()*2)
		}
		src, dst := ids[0], ids[n-1]
		sp, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		bound := sp.Weight * 1.3
		slow := g.EdgeRemovalAnalysis(src, dst, bound)
		fast := g.EdgeRemovalAnalysisFast(src, dst, bound)
		if len(slow) != len(fast) {
			t.Fatalf("trial %d: result lengths differ", trial)
		}
		for i := range slow {
			if slow[i].Edge != fast[i].Edge || slow[i].WithinBound != fast[i].WithinBound {
				t.Fatalf("trial %d edge %d: slow=%+v fast=%+v",
					trial, slow[i].Edge, slow[i], fast[i])
			}
		}
	}
}

// without rebuilds g with only the edges whose off entry is false, in
// their original order, and returns the rebuilt graph plus a map from
// its edge ids back to g's. Node ids are preserved.
func without(t *testing.T, g *Graph, off []bool) (*Graph, []EdgeID) {
	t.Helper()
	r := New()
	for i := 0; i < g.NumNodes(); i++ {
		r.EnsureNode(g.Key(NodeID(i)))
	}
	var orig []EdgeID
	for id := 0; id < g.NumEdges(); id++ {
		if off[id] {
			continue
		}
		e := g.Edge(EdgeID(id))
		if _, err := r.AddEdge(e.A, e.B, e.Weight); err != nil {
			t.Fatal(err)
		}
		orig = append(orig, EdgeID(id))
	}
	return r, orig
}

// TestShortestPathAvoidingMatchesRebuild is the edge mask's differential
// test: on seeded random graphs, routing around a mask must return the
// same weight and edges as routing on the graph rebuilt without the
// masked edges. Edge removal (one masked edge per re-run) and Yen's spur
// searches share the mask path, so their per-edge latencies must match
// the rebuilt oracle too, and no call may leave the graph routing
// differently afterwards.
func TestShortestPathAvoidingMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 25; trial++ {
		g := New()
		n := 15
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.EnsureNode(fmt.Sprintf("n%d", i))
		}
		for e := 0; e < 35; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.5+rng.Float64()*2)
		}
		src, dst := ids[0], ids[n-1]
		base, baseOK := g.ShortestPath(src, dst)

		for m := 0; m < 8; m++ {
			off := make([]bool, g.NumEdges())
			for id := range off {
				off[id] = rng.Float64() < 0.3
			}
			r, orig := without(t, g, off)
			want, wantOK := r.ShortestPath(src, dst)
			got, gotOK := g.ShortestPathAvoiding(src, dst, off)
			if gotOK != wantOK {
				t.Fatalf("trial %d mask %d: reachable %v, rebuilt %v", trial, m, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if got.Weight != want.Weight || len(got.Edges) != len(want.Edges) {
				t.Fatalf("trial %d mask %d: got %+v, rebuilt %+v", trial, m, got, want)
			}
			for i, eid := range want.Edges {
				if got.Edges[i] != orig[eid] {
					t.Fatalf("trial %d mask %d: edge %d is %d, rebuilt %d", trial, m, i, got.Edges[i], orig[eid])
				}
			}
		}

		res := g.EdgeRemovalAnalysis(src, dst, math.Inf(1))
		if len(res) != g.NumEdges() {
			t.Fatalf("trial %d: %d removal results for %d edges", trial, len(res), g.NumEdges())
		}
		for _, rr := range res {
			off := make([]bool, g.NumEdges())
			off[rr.Edge] = true
			r, _ := without(t, g, off)
			want := math.Inf(1)
			if p, ok := r.ShortestPath(src, dst); ok {
				want = p.Weight
			}
			if rr.Latency != want {
				t.Fatalf("trial %d: without edge %d latency %v, rebuilt %v", trial, rr.Edge, rr.Latency, want)
			}
		}
		g.EdgeRemovalAnalysisFast(src, dst, base.Weight*1.3)
		g.KShortestPaths(src, dst, 5)

		after, afterOK := g.ShortestPath(src, dst)
		if afterOK != baseOK || after.Weight != base.Weight || len(after.Edges) != len(base.Edges) {
			t.Fatalf("trial %d: analyses changed routing: %+v -> %+v", trial, base, after)
		}
	}
}

// TestEdgeRemovalRestoresState: the removal analyses mask one edge per
// re-run in a per-call slice, so they must leave the graph routing as
// before, and a repeat call must see no edge still masked. The bypass
// gives every removal a finite answer, so a leaked mask would show.
func TestEdgeRemovalRestoresState(t *testing.T) {
	g, ids := lineGraph(t, 5)
	if _, err := g.AddEdge(ids[0], ids[5], 10); err != nil {
		t.Fatal(err)
	}
	before, ok := g.ShortestPath(ids[0], ids[5])
	if !ok {
		t.Fatal("line graph should be connected")
	}
	slow := g.EdgeRemovalAnalysis(ids[0], ids[5], 100)
	fast := g.EdgeRemovalAnalysisFast(ids[0], ids[5], 100)
	after, ok := g.ShortestPath(ids[0], ids[5])
	if !ok || !reflect.DeepEqual(after, before) {
		t.Errorf("routing changed by removal analysis: %+v -> %+v", before, after)
	}
	if again := g.EdgeRemovalAnalysis(ids[0], ids[5], 100); !reflect.DeepEqual(again, slow) {
		t.Errorf("repeat removal analysis differs: %+v, first %+v", again, slow)
	}
	if again := g.EdgeRemovalAnalysisFast(ids[0], ids[5], 100); !reflect.DeepEqual(again, fast) {
		t.Errorf("repeat fast removal analysis differs: %+v, first %+v", again, fast)
	}
}

// TestEdgeRemovalSkipsDisabled: a down edge is left out when the graph is
// built (edges carry no disabled flag), so removal analysis reports
// exactly the built edges — here the three line edges, each a cut.
func TestEdgeRemovalSkipsDisabled(t *testing.T) {
	g, ids := lineGraph(t, 3)
	// The ids[0]–ids[3] bypass is down, so it is not added.
	res := g.EdgeRemovalAnalysis(ids[0], ids[3], 100)
	if len(res) != 3 {
		t.Errorf("results = %d, want 3 (down edge excluded)", len(res))
	}
	for _, r := range res {
		if r.WithinBound || !math.IsInf(r.Latency, 1) {
			t.Errorf("removing line edge %d: %+v, want a cut", r.Edge, r)
		}
	}
}

func TestAPAUnreachableBaseline(t *testing.T) {
	g := New()
	a, b := g.EnsureNode("a"), g.EnsureNode("b")
	c := g.EnsureNode("c")
	g.AddEdge(a, c, 1) // b unreachable
	if apa := g.APA(a, b, 100); apa != 0 {
		t.Errorf("APA with unreachable dst = %v, want 0", apa)
	}
}
