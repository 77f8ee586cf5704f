package heuristic

import (
	stdctx "context"
	"errors"
	"reflect"
	"testing"

	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
)

func TestGVSBlocksTheCut(t *testing.T) {
	// 0(R) -> 1 -> {2,3,4}: protecting node 1 saves everything downstream;
	// GVS must find it with a single seed.
	g := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
	})
	seeds, err := GVS{}.SelectContext(stdctx.Background(), Context{Graph: g, Rumors: []int32{0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeds, []int32{1}) {
		t.Fatalf("GVS selected %v, want [1]", seeds)
	}
}

func TestGVSStopsWhenNothingToSave(t *testing.T) {
	// Rumor with no out-edges: no candidate helps, selection is empty.
	g := mustGraph(t, 3, []graph.Edge{{U: 1, V: 2}})
	seeds, err := GVS{}.SelectContext(stdctx.Background(), Context{Graph: g, Rumors: []int32{0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 0 {
		t.Fatalf("GVS selected %v for an isolated rumor", seeds)
	}
}

func TestGVSRespectsBudget(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 300, AvgDegree: 6, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{Graph: net.Graph, Rumors: []int32{0, 1}}
	seeds, err := GVS{Samples: 3, MaxCandidates: 30}.SelectContext(stdctx.Background(), ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) > 2 {
		t.Fatalf("budget exceeded: %v", seeds)
	}
	for _, u := range seeds {
		if u == 0 || u == 1 {
			t.Fatal("rumor selected")
		}
	}
}

func TestGVSReducesInfections(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 400, AvgDegree: 8, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	rumors := []int32{0, 1}
	ctx := Context{Graph: net.Graph, Rumors: rumors}
	seeds, err := GVS{MaxCandidates: 40}.SelectContext(stdctx.Background(), ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	open, err := diffusion.DOAM{}.RunContext(stdctx.Background(), net.Graph, rumors, nil, nil, diffusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := diffusion.DOAM{}.RunContext(stdctx.Background(), net.Graph, rumors, seeds, nil, diffusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Infected >= open.Infected {
		t.Fatalf("GVS did not reduce infections: %d vs %d", blocked.Infected, open.Infected)
	}
}

func TestGVSValidation(t *testing.T) {
	if _, err := (GVS{}).SelectContext(stdctx.Background(), Context{}, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := mustGraph(t, 2, []graph.Edge{{U: 0, V: 1}})
	seeds, err := GVS{}.SelectContext(stdctx.Background(), Context{Graph: g, Rumors: []int32{0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seeds != nil {
		t.Fatalf("k=0 selected %v", seeds)
	}
}

func TestGVSDeterministic(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 250, AvgDegree: 6, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{Graph: net.Graph, Rumors: []int32{5}}
	sel := GVS{Model: diffusion.OPOAO{}, Samples: 5, Seed: 3, MaxCandidates: 20}
	a, err := sel.SelectContext(stdctx.Background(), ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sel.SelectContext(stdctx.Background(), ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GVS not deterministic under a fixed seed")
	}
}

func TestGVSSelectContextCanceled(t *testing.T) {
	g := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
	})
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	_, err := GVS{}.SelectContext(ctx, Context{Graph: g, Rumors: []int32{0}}, 1)
	if !errors.Is(err, stdctx.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelectContextCanceled(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	_, err := SelectContext(ctx, MaxDegree{}, Context{Graph: g, Rumors: []int32{0}}, 2, nil)
	if !errors.Is(err, stdctx.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	seeds, err := Select(MaxDegree{}, Context{Graph: g, Rumors: []int32{0}}, 2, nil)
	if err != nil || len(seeds) == 0 {
		t.Fatalf("plain Select broken: %v, %v", seeds, err)
	}
}
