package diffusion

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestTraceDOAMPath(t *testing.T) {
	g := pathGraph(t, 4)
	tr := NewTrace()
	_, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{Observer: tr.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	// Seed event plus one activation per hop.
	if len(tr.Events()) != 4 {
		t.Fatalf("events = %d, want 4", len(tr.Events()))
	}
	seed, ok := tr.Of(0)
	if !ok || seed.Hop != 0 || seed.Source != -1 {
		t.Fatalf("seed event = %+v", seed)
	}
	last, ok := tr.Of(3)
	if !ok || last.Hop != 3 || last.Source != 2 || last.Status != Infected {
		t.Fatalf("last event = %+v", last)
	}
	if got := tr.PathTo(3); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("PathTo(3) = %v", got)
	}
}

func TestTracePathToUnreached(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	tr := NewTrace()
	if _, err := (DOAM{}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{Observer: tr.Observer()}); err != nil {
		t.Fatal(err)
	}
	if got := tr.PathTo(2); got != nil {
		t.Fatalf("PathTo(unreached) = %v", got)
	}
	if _, ok := tr.Of(2); ok {
		t.Fatal("Of(unreached) reported an event")
	}
}

func TestTraceOPOAOSourcesAreNeighbours(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	net := mustGraph(t, 30, func() []graph.Edge {
		var edges []graph.Edge
		for i := int32(0); i < 29; i++ {
			edges = append(edges, graph.Edge{U: i, V: i + 1}, graph.Edge{U: i + 1, V: i})
		}
		return edges
	}())
	tr := NewTrace()
	_, err = OPOAO{}.RunContext(context.Background(), net, []int32{0}, []int32{29}, rng.New(3), Options{
		MaxHops:  40,
		Observer: tr.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events() {
		if e.Source < 0 {
			continue // seed
		}
		if !net.HasEdge(e.Source, e.Node) {
			t.Fatalf("event %+v: source is not an in-neighbour", e)
		}
	}
}

func TestTraceEventOrderIsByHop(t *testing.T) {
	g := pathGraph(t, 6)
	tr := NewTrace()
	if _, err := (DOAM{}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{Observer: tr.Observer()}); err != nil {
		t.Fatal(err)
	}
	lastHop := -1
	for _, e := range tr.Events() {
		if e.Hop < lastHop {
			t.Fatalf("events out of hop order: %+v", tr.Events())
		}
		lastHop = e.Hop
	}
}

func TestTraceProtectedEvents(t *testing.T) {
	// 0(R) -> 2, 1(P) -> 2: node 2's event must be Protected from source 1.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	tr := NewTrace()
	if _, err := (DOAM{}).RunContext(context.Background(), g, []int32{0}, []int32{1}, nil, Options{Observer: tr.Observer()}); err != nil {
		t.Fatal(err)
	}
	e, ok := tr.Of(2)
	if !ok || e.Status != Protected || e.Source != 1 {
		t.Fatalf("event = %+v, want protected from 1", e)
	}
}

func TestTraceWriteTimeline(t *testing.T) {
	g := pathGraph(t, 3)
	tr := NewTrace()
	if _, err := (DOAM{}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{Observer: tr.Observer()}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hop 0:", "0 infected (seed)", "hop 1:", "1 infected (from 0)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestObserverNilIsFree(t *testing.T) {
	// Smoke check: simulations run identically with and without observer.
	g := pathGraph(t, 5)
	a, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	b, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{Observer: tr.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Infected != b.Infected || a.Hops != b.Hops {
		t.Fatal("observer changed the simulation outcome")
	}
}
