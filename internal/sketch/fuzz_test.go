package sketch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lcrb/internal/core"
	"lcrb/internal/gen"
)

// fuzzProblem is a 16-node ring lattice (two neighbours on either side) cut
// into four 4-node communities, with the rumor at node 1: four bridge
// ends, and stores small enough for a fuzz corpus.
func fuzzProblem(t testing.TB) *core.Problem {
	t.Helper()
	g, err := gen.WattsStrogatz(16, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v / 4)
	}
	p, err := core.NewProblem(g, assign, 0, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzLoad feeds arbitrary bytes to Load under the fuzz problem's
// fingerprint. Load must never panic, and a Set it accepts must meet every
// invariant a build guarantees, checked here independently of Set.check,
// and must serve a solve. The committed corpus holds stores with the right
// fingerprint that Load must reject: a negative node id and one past the
// graph, which would index or size the coverage index out of range, and a
// baseline count that claims every pair, which would serve an empty
// protector set as achieved. It also holds one slice of a
// realization-partitioned build in the shape older versions saved
// (shardIndex/shardCount/shardSamples keys, a " shard=1/2" fingerprint),
// which must never load as the full sketch.
func FuzzLoad(f *testing.F) {
	p := fuzzProblem(f)
	opts := Options{Samples: 4, Seed: 3, Footprints: true}
	set, err := Build(p, opts)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(storeFile{Version: StoreVersion, Set: *set})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	fp, n := Fingerprint(p, opts), p.Graph.NumNodes()
	path := filepath.Join(f.TempDir(), "sketch.json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path, p, fp)
		if err != nil {
			return
		}
		if got.Samples != opts.Samples || got.NumEnds != len(p.Ends) {
			t.Fatalf("accepted samples %d, ends %d", got.Samples, got.NumEnds)
		}
		if got.BaselinePairs+len(got.Pairs) != got.Samples*got.NumEnds {
			t.Fatalf("accepted %d baseline + %d pairs for %d×%d", got.BaselinePairs, len(got.Pairs), got.Samples, got.NumEnds)
		}
		for i, pair := range got.Pairs {
			key := int(pair.Realization)*got.NumEnds + int(pair.End)
			if pair.Realization < 0 || int(pair.Realization) >= got.Samples || pair.End < 0 || int(pair.End) >= got.NumEnds {
				t.Fatalf("accepted pair %d at (%d, %d)", i, pair.Realization, pair.End)
			}
			if i > 0 && int(got.Pairs[i-1].Realization)*got.NumEnds+int(got.Pairs[i-1].End) >= key {
				t.Fatalf("accepted pair %d out of order", i)
			}
			if len(pair.Nodes) == 0 {
				t.Fatalf("accepted pair %d with an empty RR set", i)
			}
			for j, u := range pair.Nodes {
				if u < 0 || u >= n || j > 0 && pair.Nodes[j-1] >= u {
					t.Fatalf("accepted pair %d with RR set %v", i, pair.Nodes)
				}
			}
		}
		if len(got.Footprints) != 0 && len(got.Footprints) != got.Samples {
			t.Fatalf("accepted %d footprints", len(got.Footprints))
		}
		for r, fp := range got.Footprints {
			for j, u := range fp {
				if u < 0 || u >= n || j > 0 && fp[j-1] >= u {
					t.Fatalf("accepted footprint %d = %v", r, fp)
				}
			}
		}
		if _, err := SolveGreedyRIS(p, got, SolveOptions{}); err != nil {
			t.Fatalf("accepted set does not serve: %v", err)
		}
	})
}
