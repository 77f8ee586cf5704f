package sketch

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// extendAssign pads a community assignment to n nodes; fresh nodes get -1
// (no community), the dynamic-serving convention.
func extendAssign(assign []int32, n int32) []int32 {
	out := append([]int32(nil), assign...)
	for int32(len(out)) < n {
		out = append(out, -1)
	}
	return out
}

// problemOn rebinds a problem to a new snapshot graph, keeping community
// and rumor seeds (ends are recomputed).
func problemOn(t testing.TB, g *graph.Graph, old *core.Problem) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(g, extendAssign(old.Assign, g.NumNodes()), old.RumorCommunity, old.Rumors)
	if err != nil {
		t.Fatalf("problem on snapshot: %v", err)
	}
	return p
}

// The differential oracle part 1, generated stream: across an arbitrary
// mutation stream, Repair must be bit-for-bit the full rebuild at every
// version — pairs, baselines, footprints, fingerprint, version stamp,
// coverage index and all — whether a batch repairs or falls back to a full
// rebuild on an end-set change.
func TestRepairMatchesRebuildOracleGeneratedStream(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 24, Seed: 7, Footprints: true}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := dyngraph.GenerateStream(p.Graph, 12, 99, dyngraph.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oldP := p
	for i, sd := range stream {
		snap, sum, err := m.ApplyDelta(sd.Delta)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		newP := problemOn(t, snap.Graph, oldP)
		repaired, stats, err := Repair(oldP, newP, set, sum.DirtyNodes, snap.Version, 2)
		if err != nil {
			t.Fatalf("batch %d: repair: %v", i, err)
		}
		oracle, err := Build(newP, opts)
		if err != nil {
			t.Fatalf("batch %d: oracle: %v", i, err)
		}
		oracle.Version = snap.Version
		if !reflect.DeepEqual(repaired, oracle) {
			t.Fatalf("batch %d: repaired sketch != full rebuild (repaired %d, kept %d, fullRebuild %v)",
				i, stats.Repaired, stats.Kept, stats.FullRebuild)
		}
		set, oldP = repaired, newP
	}
}

// The differential oracle part 2, incremental path guaranteed: edges
// between nodes outside the rumor community can never change the bridge-end
// set (bridge BFS walks only community nodes; ends are their neighbours),
// so every batch here must take the incremental path — and some batches
// must keep realizations, proving the footprint index actually prunes.
func TestRepairMatchesRebuildOracleOutsideCommunity(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 24, Seed: 7, Footprints: true}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var outside []int32
	for v := int32(0); v < p.Graph.NumNodes(); v++ {
		if p.Assign[v] != p.RumorCommunity {
			outside = append(outside, v)
		}
	}
	if len(outside) < 10 {
		t.Skip("not enough outside nodes")
	}
	src := rng.New(123)
	oldP := p
	kept := 0
	for i := 0; i < 10; i++ {
		d := dyngraph.Delta{BaseVersion: m.Version()}
		if i%3 == 2 {
			// A strictly localized batch: two fresh nodes wired only to each
			// other. Fresh ids cannot appear in any existing footprint, so
			// this batch must keep every realization.
			n := m.NumNodes()
			d.AddNodes = 2
			d.AddEdges = [][2]int32{{n, n + 1}, {n + 1, n}}
		} else {
			for a := 0; a < 3; a++ {
				u := outside[src.Intn(len(outside))]
				v := outside[src.Intn(len(outside))]
				if u == v {
					continue
				}
				if oldP.Graph.HasEdge(u, v) && a%2 == 1 {
					d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, v})
				} else {
					d.AddEdges = append(d.AddEdges, [2]int32{u, v})
				}
			}
		}
		if d.Empty() {
			continue
		}
		snap, sum, err := m.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		newP := problemOn(t, snap.Graph, oldP)
		repaired, stats, err := Repair(oldP, newP, set, sum.DirtyNodes, snap.Version, 2)
		if err != nil {
			t.Fatalf("batch %d: repair: %v", i, err)
		}
		if stats.FullRebuild {
			t.Fatalf("batch %d: outside-community delta changed the ends", i)
		}
		kept += stats.Kept
		oracle, err := Build(newP, opts)
		if err != nil {
			t.Fatalf("batch %d: oracle: %v", i, err)
		}
		oracle.Version = snap.Version
		if !reflect.DeepEqual(repaired, oracle) {
			t.Fatalf("batch %d: repaired sketch != full rebuild (repaired %d, kept %d)",
				i, stats.Repaired, stats.Kept)
		}
		set, oldP = repaired, newP
	}
	if kept == 0 {
		t.Error("every realization re-drew on every batch: the footprint index pruned nothing")
	}
}

// Repair is worker-count invariant, like Build.
func TestRepairWorkerCountInvariant(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 16, Seed: 3, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	snap, sum, err := m.ApplyDelta(dyngraph.Delta{
		BaseVersion: 1,
		RemoveEdges: [][2]int32{{p.Rumors[0], p.Graph.Out(p.Rumors[0])[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	newP := problemOn(t, snap.Graph, p)
	var got []*Set
	for _, workers := range []int{1, 2, 7} {
		r, _, err := Repair(p, newP, set, sum.DirtyNodes, snap.Version, workers)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(got[0], got[2]) {
		t.Fatal("repair output depends on worker count")
	}
}

// A localized delta — fresh nodes wired only to each other, disconnected
// from the rumor community — must repair zero realizations: no footprint
// can reach them. This is the repair-count ceiling of the acceptance
// criteria in its sharpest form.
func TestRepairLocalizedDeltaRedrawsNothing(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 32, Seed: 5, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Graph.NumNodes()
	oldP := p
	deltas := []dyngraph.Delta{
		{BaseVersion: 1, AddNodes: 2, AddEdges: [][2]int32{{n, n + 1}}},
		{BaseVersion: 2, RemoveEdges: [][2]int32{{n, n + 1}}},
	}
	for i, d := range deltas {
		snap, sum, err := m.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		newP := problemOn(t, snap.Graph, oldP)
		repaired, stats, err := Repair(oldP, newP, set, sum.DirtyNodes, snap.Version, 1)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if stats.FullRebuild {
			t.Fatalf("batch %d: isolated-component delta changed the bridge ends?", i)
		}
		if stats.Repaired != 0 || stats.Kept != 32 {
			t.Fatalf("batch %d: repaired %d, kept %d; want 0 re-draws for a delta outside every footprint",
				i, stats.Repaired, stats.Kept)
		}
		oracle, err := Build(newP, Options{Samples: 32, Seed: 5, Footprints: true})
		if err != nil {
			t.Fatal(err)
		}
		oracle.Version = snap.Version
		if !reflect.DeepEqual(repaired, oracle) {
			t.Fatalf("batch %d: zero-redraw repair still must equal the rebuild", i)
		}
		set, oldP = repaired, newP
	}
}

// A delta through the rumor seed's own out-row sits in every realization's
// footprint: everything re-draws.
func TestRepairSeedDeltaRedrawsAll(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 16, Seed: 5, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	seed := p.Rumors[0]
	if p.Graph.OutDegree(seed) == 0 {
		t.Skip("seed has no out-edge to remove")
	}
	snap, sum, err := m.ApplyDelta(dyngraph.Delta{
		BaseVersion: 1,
		RemoveEdges: [][2]int32{{seed, p.Graph.Out(seed)[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	newP := problemOn(t, snap.Graph, p)
	_, stats, err := Repair(p, newP, set, sum.DirtyNodes, snap.Version, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullRebuild {
		t.Skip("removing the seed edge changed the ends; full-rebuild path covered elsewhere")
	}
	if stats.Repaired != 16 {
		t.Fatalf("repaired %d of 16; the rumor seed is in every footprint", stats.Repaired)
	}
}

// Changing the bridge-end set invalidates every pair's End index: Repair
// must fall back to a full rebuild and say so.
func TestRepairEndsChangedFullRebuild(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 8, Seed: 2, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wire a rumor seed to a node outside the community with no current
	// edge from the seed: a brand-new bridge end.
	seed := p.Rumors[0]
	var target int32 = -1
	for v := int32(0); v < p.Graph.NumNodes(); v++ {
		if p.Assign[v] != p.RumorCommunity && !p.Graph.HasEdge(seed, v) && !p.IsEnd(v) {
			target = v
			break
		}
	}
	if target < 0 {
		t.Skip("no suitable outside node")
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	snap, sum, err := m.ApplyDelta(dyngraph.Delta{BaseVersion: 1, AddEdges: [][2]int32{{seed, target}}})
	if err != nil {
		t.Fatal(err)
	}
	newP := problemOn(t, snap.Graph, p)
	if reflect.DeepEqual(newP.Ends, p.Ends) {
		t.Fatal("test construction failed: ends unchanged")
	}
	repaired, stats, err := Repair(p, newP, set, sum.DirtyNodes, snap.Version, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullRebuild || !stats.EndsChanged {
		t.Fatalf("stats = %+v; want full rebuild with EndsChanged", stats)
	}
	oracle, err := Build(newP, Options{Samples: 8, Seed: 2, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle.Version = snap.Version
	if !reflect.DeepEqual(repaired, oracle) {
		t.Fatal("ends-changed rebuild does not match the oracle")
	}
}

// Multi-batch catch-up: repairing once across the union of several batches'
// dirty sets (Master.DirtySince) equals the rebuild at the latest version.
func TestRepairAcrossMultipleBatches(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 16, Seed: 11, Footprints: true}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := dyngraph.GenerateStream(p.Graph, 5, 17, dyngraph.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range stream {
		if _, _, err := m.ApplyDelta(sd.Delta); err != nil {
			t.Fatal(err)
		}
	}
	dirty, err := m.DirtySince(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	newP := problemOn(t, snap.Graph, p)
	repaired, _, err := Repair(p, newP, set, dirty, snap.Version, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(newP, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Version = snap.Version
	if !reflect.DeepEqual(repaired, oracle) {
		t.Fatal("old→latest repair across batches != rebuild at latest version")
	}
}

func TestRepairAdaptiveRechecksCertificate(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Epsilon: 0.4, Delta: 0.2, Footprints: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	snap, sum, err := m.ApplyDelta(dyngraph.Delta{
		BaseVersion: 1,
		RemoveEdges: [][2]int32{{p.Rumors[0], p.Graph.Out(p.Rumors[0])[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	newP := problemOn(t, snap.Graph, p)
	repaired, stats, err := Repair(p, newP, set, sum.DirtyNodes, snap.Version, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CertRechecked {
		t.Fatal("adaptive repair must recheck the (ε, δ) certificate")
	}
	if repaired.Epsilon != set.Epsilon || repaired.Samples != set.Samples {
		t.Fatal("adaptive repair must keep the realized sizing and stopping rule")
	}
	if err := repaired.Validate(newP); err != nil {
		t.Fatalf("repaired adaptive sketch does not validate against the new problem: %v", err)
	}
}

func TestRepairErrorPaths(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	other := testProblem(t, 300, 40, 43)
	set, err := Build(p, Options{Samples: 8, Seed: 2, Footprints: true})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Build(p, Options{Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := BuildShardContext(context.Background(), p, Options{Samples: 8, Seed: 2}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := Repair(p, p, bare, []int32{0}, 2, 1); !errors.Is(err, ErrNoFootprints) {
		t.Fatalf("footprint-less repair: err = %v, want ErrNoFootprints", err)
	}
	if _, _, err := Repair(p, p, slice, []int32{0}, 2, 1); err == nil || !strings.Contains(err.Error(), "shard slice") {
		t.Fatalf("shard-slice repair: err = %v, want rejection", err)
	}
	if _, _, err := Repair(other, p, set, []int32{0}, 2, 1); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong old problem: err = %v, want ErrStale", err)
	}
	if _, _, err := Repair(p, p, set, []int32{int32(p.Graph.NumNodes())}, 2, 1); err == nil {
		t.Fatal("out-of-range dirty node accepted")
	}
}
