package graph

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lcrb/internal/rng"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment line
0 1
1 2   # trailing comment
2 0
`
	el, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if el.Graph.NumNodes() != 3 || el.Graph.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", el.Graph.NumNodes(), el.Graph.NumEdges())
	}
	if !reflect.DeepEqual(el.Labels, []int64{0, 1, 2}) {
		t.Fatalf("labels = %v", el.Labels)
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "1000 5\n5 999999\n"
	el, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if el.Graph.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", el.Graph.NumNodes())
	}
	// First-seen order: 1000 -> 0, 5 -> 1, 999999 -> 2.
	if !reflect.DeepEqual(el.Labels, []int64{1000, 5, 999999}) {
		t.Fatalf("labels = %v", el.Labels)
	}
	if !el.Graph.HasEdge(0, 1) || !el.Graph.HasEdge(1, 2) {
		t.Fatal("remapped edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"single field", "42\n"},
		{"bad source", "x 1\n"},
		{"bad target", "1 y\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tt.in)); err == nil {
				t.Fatalf("input %q parsed without error", tt.in)
			}
		})
	}
}

func TestReadEdgeListDropsNegativeIDs(t *testing.T) {
	// Negative identifiers are a data quirk, not a parse error: the lines
	// are skipped and counted, the rest of the file parses normally, and
	// no label space is wasted on the refused identifiers.
	in := "0 1\n-3 1\n2 -7\n1 2\n"
	el, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if el.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", el.Dropped)
	}
	if el.Graph.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", el.Graph.NumEdges())
	}
	// Dropped lines intern nothing: -3 and -7 never enter the label
	// space, and neither does an otherwise-valid endpoint on a dropped
	// line until a clean line mentions it.
	if !reflect.DeepEqual(el.Labels, []int64{0, 1, 2}) {
		t.Fatalf("labels = %v, want [0 1 2]", el.Labels)
	}
}

func TestReadEdgeListCleanInputDropsNothing(t *testing.T) {
	el, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if el.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", el.Dropped)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	src := rng.New(3001)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(src, 40)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		el, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Round trip loses isolated nodes (they never appear in the file),
		// so compare edge sets through the labels.
		want := g.Edges()
		var got []Edge
		for u := int32(0); u < el.Graph.NumNodes(); u++ {
			for _, v := range el.Graph.Out(u) {
				got = append(got, Edge{U: int32(el.Labels[u]), V: int32(el.Labels[v])})
			}
		}
		sortEdges(got)
		sortEdges(want)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip edges differ:\n got %v\nwant %v", got, want)
		}
	}
}

func sortEdges(edges []Edge) {
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j-1], edges[j]
			if a.U < b.U || (a.U == b.U && a.V <= b.V) {
				break
			}
			edges[j-1], edges[j] = b, a
		}
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	g := buildMust(t, 3, []Edge{{0, 1}, {1, 2}})
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := WriteEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	el, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if el.Graph.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", el.Graph.NumEdges())
	}
}

func TestReadEdgeListFileMissing(t *testing.T) {
	if _, err := ReadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestCommunitiesRoundTrip(t *testing.T) {
	assign := []int32{0, 1, 1, 0, 2}
	var buf bytes.Buffer
	if err := WriteCommunities(&buf, assign); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCommunities(&buf, int32(len(assign)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, assign) {
		t.Fatalf("round trip = %v, want %v", got, assign)
	}
}

func TestReadCommunitiesWithLabels(t *testing.T) {
	in := "1000 0\n5 1\n"
	labels := []int64{1000, 5}
	got, err := ReadCommunities(strings.NewReader(in), 2, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("assignment = %v", got)
	}
}

func TestReadCommunitiesErrors(t *testing.T) {
	tests := []struct {
		name   string
		in     string
		labels []int64
	}{
		{"unknown node", "7 0\n", []int64{1, 2}},
		{"out of range", "9 0\n", nil},
		{"single field", "3\n", nil},
		{"bad community", "0 x\n", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCommunities(strings.NewReader(tt.in), 2, tt.labels); err == nil {
				t.Fatalf("input %q parsed without error", tt.in)
			}
		})
	}
}
