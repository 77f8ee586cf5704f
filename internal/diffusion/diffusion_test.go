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

func TestResultCountStatus(t *testing.T) {
	r := &Result{Status: []Status{Infected, Inactive, Protected, Infected}}
	if got := r.CountStatus(Infected); got != 2 {
		t.Fatalf("CountStatus(Infected) = %d", got)
	}
	if got := r.CountStatus(Inactive); got != 1 {
		t.Fatalf("CountStatus(Inactive) = %d", got)
	}
}

func TestModelNames(t *testing.T) {
	if got := (OPOAO{}).Name(); got != "OPOAO" {
		t.Fatalf("OPOAO name = %q", got)
	}
	if got := (DOAM{}).Name(); got != "DOAM" {
		t.Fatalf("DOAM name = %q", got)
	}
}
