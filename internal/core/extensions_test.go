package core

import (
	"reflect"
	"testing"

	"lcrb/internal/graph"
)

func TestSCBGWeightedPrefersCheapCover(t *testing.T) {
	// Rumor 0 reaches ends 1 and 2; node 3 covers both ends but is
	// expensive, the ends themselves are cheap.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 1}, {U: 3, V: 2},
	})
	p, err := NewProblem(g, []int32{0, 1, 1, 1}, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	// Unit costs: node 3 wins (1 seed beats 2).
	unit, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unit.Protectors, []int32{3}) {
		t.Fatalf("unit-cost protectors = %v, want [3]", unit.Protectors)
	}
	if unit.Cost != 1 {
		t.Fatalf("unit cost = %v, want 1", unit.Cost)
	}
	// Node 3 costs 10, everyone else 1: the two ends are now cheaper.
	weighted, err := SCBG(p, SCBGOptions{Cost: func(u int32) float64 {
		if u == 3 {
			return 10
		}
		return 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(weighted.Protectors) != 2 || weighted.Cost != 2 {
		t.Fatalf("weighted selection = %v (cost %v), want the two cheap ends",
			weighted.Protectors, weighted.Cost)
	}
	for _, u := range weighted.Protectors {
		if u == 3 {
			t.Fatal("expensive node selected despite cheap alternative")
		}
	}
}

func TestSCBGWeightedInvalidCost(t *testing.T) {
	p := fixtureProblem(t)
	if _, err := SCBG(p, SCBGOptions{Cost: func(int32) float64 { return 0 }}); err == nil {
		t.Fatal("non-positive cost accepted")
	}
}

func TestSCBGCostReportedUnderUnitCosts(t *testing.T) {
	p := fixtureProblem(t)
	res, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != float64(len(res.Protectors)) {
		t.Fatalf("Cost = %v for %d protectors", res.Cost, len(res.Protectors))
	}
}
