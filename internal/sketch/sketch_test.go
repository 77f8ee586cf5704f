package sketch

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
)

// testProblem builds a planted-community LCRB-P instance with bridge ends.
func testProblem(t testing.TB, nodes, commSize int32, seed uint64) *core.Problem {
	t.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: nodes, AvgDegree: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(commSize)
	members := planted.Members(comm)
	if len(members) < 3 {
		t.Fatalf("community too small: %d members", len(members))
	}
	p, err := core.NewProblem(net.Graph, planted.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	return p
}

func TestSketchBuildDefaults(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if set.Samples != DefaultSamples {
		t.Fatalf("Samples = %d, want default %d", set.Samples, DefaultSamples)
	}
	if set.MaxHops != core.DefaultGreedyHops {
		t.Fatalf("MaxHops = %d, want default %d", set.MaxHops, core.DefaultGreedyHops)
	}
	if set.NumEnds != p.NumEnds() {
		t.Fatalf("NumEnds = %d, want %d", set.NumEnds, p.NumEnds())
	}
	if set.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}
	if got := set.BaselinePairs + len(set.Pairs); got != set.Samples*p.NumEnds() {
		t.Fatalf("pairs + baseline = %d, want samples*ends = %d", got, set.Samples*p.NumEnds())
	}
}

func TestSketchBuildValidation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := Build(p, Options{Samples: -1}); err == nil {
		t.Fatal("negative samples accepted")
	}
	if _, err := Build(p, Options{MaxHops: -1}); err == nil {
		t.Fatal("negative max hops accepted")
	}
}

func TestSketchRRSetInvariants(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Pairs) == 0 {
		t.Skip("no coverable pairs for this draw")
	}
	for _, pair := range set.Pairs {
		end := p.Ends[pair.End]
		found := false
		prev := int32(math.MinInt32)
		for _, u := range pair.Nodes {
			if u <= prev {
				t.Fatalf("pair (%d,%d): nodes not strictly ascending", pair.Realization, pair.End)
			}
			prev = u
			if u == end {
				found = true
			}
			if p.IsRumor(u) {
				t.Fatalf("pair (%d,%d): rumor seed %d in RR set", pair.Realization, pair.End, u)
			}
		}
		if !found {
			t.Fatalf("pair (%d,%d): RR set missing its own end %d", pair.Realization, pair.End, end)
		}
	}
	// Seeding every candidate covers every pair: σ̂ = |B|.
	if got := set.Sigma(set.index.Nodes); got != float64(p.NumEnds()) {
		t.Fatalf("σ̂(all candidates) = %v, want full |B| = %d", got, p.NumEnds())
	}
	// σ̂ is monotone in S.
	if set.Sigma(nil) > set.Sigma(set.index.Nodes[:1]) {
		t.Fatal("σ̂ decreased when adding a protector")
	}
}

// TestSketchBuildBitIdenticalAcrossWorkers is the PR-3 common-random-numbers
// discipline applied to sketch builds: the built Set — including its Save
// bytes — must be bit-identical for every worker count. Run under -race in
// CI's bit-identity step.
func TestSketchBuildBitIdenticalAcrossWorkers(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 48, Seed: 11}
	workers := []int{1, 2, runtime.GOMAXPROCS(0), -1}
	var ref *Set
	var refBytes []byte
	dir := t.TempDir()
	for _, w := range workers {
		o := opts
		o.Workers = w
		set, err := Build(p, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		path := filepath.Join(dir, "sketch.json")
		if err := Save(path, set); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refBytes = set, data
			continue
		}
		if !reflect.DeepEqual(set, ref) {
			t.Fatalf("workers=%d built a different sketch than workers=1", w)
		}
		if string(data) != string(refBytes) {
			t.Fatalf("workers=%d saved different bytes than workers=1", w)
		}
	}
}

func TestSketchBuildSeedSensitivity(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	a, err := Build(p, Options{Samples: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, Options{Samples: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different sketches")
	}
	c, err := Build(p, Options{Samples: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Pairs, c.Pairs) && a.BaselinePairs == c.BaselinePairs {
		t.Fatal("different seeds built identical sketches")
	}
	if a.Fingerprint == c.Fingerprint {
		t.Fatal("different seeds share a fingerprint")
	}
}

func TestSketchBuildCancellation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := BuildContext(ctx, p, Options{Samples: 16, Seed: 1, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled build returned %v, want context.Canceled", workers, err)
		}
	}

	// A passed deadline fails the whole build: there is no partial sketch.
	ctx, cancel = context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if set, err := BuildContext(ctx, p, Options{Samples: 512, Seed: 1}); !errors.Is(err, context.DeadlineExceeded) || set != nil {
		t.Fatalf("deadline-starved build returned (%v, %v), want no set and context.DeadlineExceeded", set, err)
	}
}

// TestSketchSigmaAccuracyVsMonteCarlo is the stated accuracy bound of the
// estimator: on seed graphs, σ̂_RIS of a solver-chosen protector set agrees
// with an independent Monte-Carlo judge (core.Evaluate over fresh OPOAO
// realizations) within 5% relative error, and baseline estimates within one
// bridge end absolutely.
func TestSketchSigmaAccuracyVsMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy comparison is slow")
	}
	for _, tc := range []struct {
		name string
		prob *core.Problem
	}{
		{"community600", testProblem(t, 600, 60, 17)},
		{"community300", testProblem(t, 300, 40, 41)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prob
			set, err := Build(p, Options{Samples: 256, Seed: 7, Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			judge := func(ps []int32) float64 {
				ev, err := core.EvaluateContext(context.Background(), p, ps, core.EvaluateOptions{
					Model: diffusion.OPOAO{}, Samples: 400, Seed: 99, Workers: -1})
				if err != nil {
					t.Fatal(err)
				}
				return float64(p.NumEnds()) - ev.MeanEndsInfected
			}
			// Baseline (empty set): absolute agreement within one end.
			if ris, mc := set.Sigma(nil), judge(nil); math.Abs(ris-mc) > 1.0 {
				t.Fatalf("baseline σ̂: ris %.3f vs mc %.3f, |Δ| > 1 end", ris, mc)
			}
			// The RIS-selected protector set: relative agreement within 5%.
			res, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			mc := judge(res.Protectors)
			if mc == 0 {
				t.Fatal("MC judge scored the selected set at zero")
			}
			if rel := math.Abs(res.ProtectedEnds-mc) / mc; rel > 0.05 {
				t.Fatalf("selected set: σ̂_RIS %.3f vs MC %.3f, relative error %.3f > 0.05",
					res.ProtectedEnds, mc, rel)
			}
		})
	}
}
