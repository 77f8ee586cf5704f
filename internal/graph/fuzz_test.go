package graph

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to ReadEdgeList. It must never
// panic, and a list it accepts must be well formed — one distinct,
// non-negative external label per dense node — and must round-trip through
// WriteEdgeList: reading the written list back yields the same edges, named
// through the second read's labels (the dense ids of the first graph).
// Isolated nodes do not survive the trip, as in TestEdgeListRoundTrip: an
// edge list has no line for them. The committed corpus under
// testdata/fuzz/FuzzReadEdgeList covers comments, sparse and negative ids,
// self-loops, duplicate edges, CRLF and tab separators, an id past int64
// and malformed lines; fuzzEdgeListWant pins the exact shape of the inputs
// it lists.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		g := el.Graph
		if int(g.NumNodes()) != len(el.Labels) {
			t.Fatalf("accepted %d nodes with %d labels", g.NumNodes(), len(el.Labels))
		}
		seen := make(map[int64]bool, len(el.Labels))
		for id, ext := range el.Labels {
			if ext < 0 || seen[ext] {
				t.Fatalf("accepted label %d for node %d (negative or repeated)", ext, id)
			}
			seen[ext] = true
		}
		if el.Dropped < 0 {
			t.Fatalf("accepted Dropped = %d", el.Dropped)
		}
		// Only kept edge lines intern ids, so no accepted node is isolated.
		for v := int32(0); v < g.NumNodes(); v++ {
			if g.OutDegree(v) == 0 && g.InDegree(v) == 0 {
				t.Fatalf("node %d (label %d) has no edge", v, el.Labels[v])
			}
		}
		if want, ok := fuzzEdgeListWant[string(data)]; ok {
			if got := [3]int64{int64(g.NumNodes()), g.NumEdges(), el.Dropped}; got != want {
				t.Fatalf("(nodes, edges, dropped) = %v, want %v", got, want)
			}
		}

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written list does not read back: %v\n%s", err, buf.String())
		}
		if back.Dropped != 0 {
			t.Fatalf("written list drops %d edges on read", back.Dropped)
		}
		var got []Edge
		for u := int32(0); u < back.Graph.NumNodes(); u++ {
			for _, v := range back.Graph.Out(u) {
				got = append(got, Edge{U: int32(back.Labels[u]), V: int32(back.Labels[v])})
			}
		}
		want := g.Edges()
		sortEdges(got)
		sortEdges(want)
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip edges differ:\n got %v\nwant %v", got, want)
		}
	})
}

// fuzzEdgeListWant pins (nodes, edges, dropped) for corpus inputs: the
// self-loop-isolated input's two self-loops are dropped and counted, and
// their ids 0 and 3 become no node.
var fuzzEdgeListWant = map[string][3]int64{
	"0 0\n1 2\n3 3\n2 1\n": {2, 2, 2},
}
