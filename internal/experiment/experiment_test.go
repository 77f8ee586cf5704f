package experiment

import (
	"context"
	"testing"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Dataset: Hep, CommunityTarget: 100}.withDefaults()
	if c.Scale != 1 || c.Hops != 31 || c.MCSamples == 0 || c.GreedySamples == 0 || c.Trials == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if len(c.RumorFractions) != 1 {
		t.Fatalf("default rumor fractions = %v", c.RumorFractions)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		c    Config
	}{
		{"bad dataset", Config{Dataset: "x", Scale: 1, CommunityTarget: 10}},
		{"bad scale", Config{Dataset: Hep, Scale: 2, CommunityTarget: 10}},
		{"bad target", Config{Dataset: Hep, Scale: 1, CommunityTarget: 0}},
		{"bad fraction", Config{Dataset: Hep, Scale: 1, CommunityTarget: 10, RumorFractions: []float64{2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestPaperConfigsAreValid(t *testing.T) {
	configs := []Config{Fig4(0.5), Fig5(0.5), Fig6(0.5), Fig7(0.5), Fig8(0.5), Fig9(0.5)}
	configs = append(configs, Table1(0.5)...)
	seen := make(map[string]bool)
	for _, c := range configs {
		if err := c.validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if seen[c.Name] {
			t.Errorf("duplicate experiment name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(configs) != 9 {
		t.Fatalf("expected 9 paper configs (6 figures + 3 table blocks), got %d", len(configs))
	}
}

func TestScaledCommunityTargetFloor(t *testing.T) {
	c := Config{CommunityTarget: 80, Scale: 0.05}
	if got := c.scaledCommunityTarget(); got < 60 {
		t.Fatalf("scaled target %d below floor", got)
	}
	c = Config{CommunityTarget: 2631, Scale: 0.1}
	if got := c.scaledCommunityTarget(); got != 263 {
		t.Fatalf("scaled target = %d, want 263", got)
	}
}

func TestSetup(t *testing.T) {
	for _, ds := range []Dataset{Hep, Enron} {
		cfg := Config{Dataset: ds, Scale: 0.03, Seed: 1, CommunityTarget: 100}
		inst, err := Setup(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if inst.Net.Graph.NumNodes() == 0 {
			t.Fatalf("%s: empty graph", ds)
		}
		if err := inst.Part.Validate(inst.Net.Graph.NumNodes()); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if len(inst.Members) == 0 {
			t.Fatalf("%s: empty rumor community", ds)
		}
		for _, m := range inst.Members {
			if inst.Part.Of(m) != inst.Community {
				t.Fatalf("%s: member %d not in community %d", ds, m, inst.Community)
			}
		}
	}
}

func TestSetupRejectsInvalid(t *testing.T) {
	if _, err := Setup(Config{Dataset: "nope", Scale: 1, CommunityTarget: 10}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDrawRumors(t *testing.T) {
	inst := &Instance{Members: []int32{10, 20, 30, 40, 50}}
	src := rng.New(1)
	rumors := inst.drawRumors(0.4, src)
	if len(rumors) != 2 {
		t.Fatalf("drew %d rumors, want 2", len(rumors))
	}
	seen := make(map[int32]bool)
	for _, r := range rumors {
		if r != 10 && r != 20 && r != 30 && r != 40 && r != 50 {
			t.Fatalf("rumor %d not a member", r)
		}
		if seen[r] {
			t.Fatalf("duplicate rumor %d", r)
		}
		seen[r] = true
	}
	// Tiny fraction still draws one rumor; huge fraction clamps.
	if got := inst.drawRumors(0.0001, src); len(got) != 1 {
		t.Fatalf("tiny fraction drew %d", len(got))
	}
	if got := inst.drawRumors(1, src); len(got) != 5 {
		t.Fatalf("full fraction drew %d", len(got))
	}
}

func TestMinPrefixProtecting(t *testing.T) {
	// 0(R) -> 1 -> 2(end). Rank = [5(useless), 1(blocks everything)].
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := minPrefixProtecting(ctx, g, []int32{0}, []int32{2}, []int32{5, 1})
	if err != nil || got != 2 {
		t.Fatalf("minPrefixProtecting = %d, %v, want 2", got, err)
	}
	// Rank starting with the blocker needs just 1.
	if got, err := minPrefixProtecting(ctx, g, []int32{0}, []int32{2}, []int32{1, 5}); err != nil || got != 1 {
		t.Fatalf("minPrefixProtecting = %d, %v, want 1", got, err)
	}
	// No ends: zero protectors needed.
	if got, err := minPrefixProtecting(ctx, g, []int32{0}, nil, []int32{1}); err != nil || got != 0 {
		t.Fatalf("no-ends prefix = %d, %v, want 0", got, err)
	}
	// Insufficient ranking: len(rank)+1 signals failure.
	if got, err := minPrefixProtecting(ctx, g, []int32{0}, []int32{2}, []int32{5}); err != nil || got != 2 {
		t.Fatalf("short-rank prefix = %d, %v, want len(rank)+1 = 2", got, err)
	}
}

func TestMinPrefixProtectingLongRank(t *testing.T) {
	// Exercise the doubling phase: a long ranking whose useful node sits
	// deep inside.
	b := graph.NewBuilder(20)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rank := make([]int32, 0, 10)
	for i := int32(10); i < 19; i++ {
		rank = append(rank, i) // isolated, useless nodes
	}
	rank = append(rank, 1) // the blocker, at position 10
	if got, err := minPrefixProtecting(context.Background(), g, []int32{0}, []int32{2}, rank); err != nil || got != 10 {
		t.Fatalf("prefix = %d, %v, want 10", got, err)
	}
}

func TestSampleSubset(t *testing.T) {
	xs := []int32{1, 2, 3, 4, 5}
	src := rng.New(2)
	got := sampleSubset(xs, 3, src)
	if len(got) != 3 {
		t.Fatalf("sample size = %d", len(got))
	}
	if got := sampleSubset(xs, 99, src); len(got) != 5 {
		t.Fatalf("oversized sample = %v", got)
	}
	if got := sampleSubset(xs, 0, src); got != nil {
		t.Fatalf("zero sample = %v", got)
	}
}

func TestPadSeries(t *testing.T) {
	got := padSeries([]int32{1, 4}, 4)
	want := []float64{1, 4, 4, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("padSeries = %v, want %v", got, want)
		}
	}
	if got := padSeries(nil, 2); got[0] != 0 || got[2] != 0 {
		t.Fatalf("padSeries(nil) = %v", got)
	}
}
