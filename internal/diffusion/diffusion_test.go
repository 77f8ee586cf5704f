package diffusion

import (
	"testing"

	"lcrb/internal/graph"
)

// mustGraph builds a graph from edges, failing the test on error.
func mustGraph(t *testing.T, n int32, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathGraph returns 0 -> 1 -> ... -> n-1.
func pathGraph(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := int32(0); i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{Inactive, "inactive"},
		{Infected, "infected"},
		{Protected, "protected"},
		{Status(9), "status(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Status(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestSeedStateValidation(t *testing.T) {
	g := mustGraph(t, 3, nil)
	if _, err := seedState(g, []int32{5}, nil); err == nil {
		t.Fatal("out-of-range rumor accepted")
	}
	if _, err := seedState(g, nil, []int32{-1}); err == nil {
		t.Fatal("negative protector accepted")
	}
}

func TestSeedStateOverlapGivesPPriority(t *testing.T) {
	g := mustGraph(t, 2, nil)
	status, err := seedState(g, []int32{0}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if status[0] != Protected {
		t.Fatalf("overlapping seed status = %v, want protected", status[0])
	}
}

// countStatus returns the number of nodes of res with status st, the
// cross-check of the running Infected and Protected counters.
func countStatus(res *Result, st Status) int32 {
	var n int32
	for _, s := range res.Status {
		if s == st {
			n++
		}
	}
	return n
}

func TestModelNames(t *testing.T) {
	if got := (OPOAO{}).Name(); got != "OPOAO" {
		t.Fatalf("OPOAO name = %q", got)
	}
	if got := (DOAM{}).Name(); got != "DOAM" {
		t.Fatalf("DOAM name = %q", got)
	}
}
