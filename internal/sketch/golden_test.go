package sketch

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
)

// Golden sampler digests: a SHA-256 over Pairs, BaselinePairs and
// Footprints of pinned builds. They pin the sampler's output bit for bit,
// so a change to how RR sets are computed (the schedule index, the ordered
// emit, the relay test) must reproduce every sketch exactly. Never
// regenerate these to make a sampler change pass: a mismatch means the
// change altered what the sketch estimates.
const (
	goldenHepFixed       = "c86025ab7c97de98b8a5c191c311644873e56a4cc053ffc1c0f9790ce6f39006"
	goldenLatticeHops100 = "b5315139f30afb81303dbbb2772d285833c7be4c412639f4297265ba76b5e751"
	goldenHepRepair      = "ceb5b930fb25daceb973167bccc35eedc73803400c366f71f1b4a2c904b3591c"
	goldenHepShard       = "3ef0b31fe896c79053f1f768589c682adb0ee0181b7ac63e7eebbc7e0f160fd1"
)

// hepProblem is the pinned hep instance of the golden digests and the
// sampler benchmark: the hep profile at scale 0.05, the Louvain community
// closest to 80 nodes, and a tenth of its members as rumor seeds.
func hepProblem(t testing.TB) *core.Problem {
	t.Helper()
	net, err := gen.Hep(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(80)
	members := part.Members(comm)
	var rumors []int32
	for _, i := range rng.New(101).SampleInt32(int32(len(members)), int32(len(members)/10)) {
		rumors = append(rumors, members[i])
	}
	p, err := core.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Fatal("pinned hep instance has no bridge ends")
	}
	return p
}

// sketchDigest hashes everything the sampler produces.
func sketchDigest(set *Set) string {
	h := sha256.New()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	list := func(xs []int32) {
		word(int64(len(xs)))
		for _, x := range xs {
			word(int64(x))
		}
	}
	word(int64(set.BaselinePairs))
	word(int64(len(set.Pairs)))
	for _, pr := range set.Pairs {
		word(int64(pr.Realization))
		word(int64(pr.End))
		list(pr.Nodes)
	}
	word(int64(len(set.Footprints)))
	for _, fp := range set.Footprints {
		list(fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkDigest(t *testing.T, name string, set *Set, want string) {
	t.Helper()
	if got := sketchDigest(set); got != want {
		t.Errorf("%s: sampler digest %s, want golden %s", name, got, want)
	}
}

func TestGoldenSamplerDigestFixed(t *testing.T) {
	p := hepProblem(t)
	for _, workers := range []int{1, 3} {
		set, err := Build(p, Options{Samples: 32, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "hep 0.05 fixed", set, goldenHepFixed)
	}
}

// latticeProblem is a long-horizon instance: a 400-node ring lattice
// (each node linked to its two nearest neighbours on either side) cut into
// four 100-node communities, with one rumor seed in the middle of the
// first. The rumor needs 40 to 90 hops to reach the bridge ends, so a
// 100-hop horizon takes table rows and sweep levels past 64.
func latticeProblem(t testing.TB) *core.Problem {
	t.Helper()
	g, err := gen.WattsStrogatz(400, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v / 100)
	}
	p, err := core.NewProblem(g, assign, 0, []int32{50})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A horizon past 63 hops sweeps more levels than a word has bits; the
// test insists some rumor arrival really lies past hop 63, so the long
// sweeps are exercised, not just allowed.
func TestGoldenSamplerDigestLongHorizon(t *testing.T) {
	p := latticeProblem(t)
	const hops = 100
	set, err := Build(p, Options{Samples: 16, Seed: 11, MaxHops: hops})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "lattice hops=100", set, goldenLatticeHops100)

	late := 0
	src := rng.New(11)
	sc := newSampler(p, hops, false).newScratch()
	for r := 0; r < set.Samples; r++ {
		sc.forward(src.Uint64())
		for _, e := range p.Ends {
			if sc.arr[e] > 63 {
				late++
			}
		}
	}
	if late == 0 {
		t.Fatal("no bridge end reached past hop 63: the long-horizon build does not exercise multi-word masks")
	}
}

func TestGoldenSamplerDigestRepair(t *testing.T) {
	p := hepProblem(t)
	set, err := Build(p, Options{Samples: 16, Seed: 7, Footprints: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Edges among nodes outside the rumor community keep the end set, so
	// the repair takes the incremental path and re-draws realizations.
	var outside []int32
	for v := int32(0); v < p.Graph.NumNodes(); v++ {
		if p.Assign[v] != p.RumorCommunity {
			outside = append(outside, v)
		}
	}
	d := dyngraph.Delta{BaseVersion: m.Version()}
	src := rng.New(5)
	for len(d.AddEdges) < 8 {
		u, v := outside[src.Intn(len(outside))], outside[src.Intn(len(outside))]
		if u != v && !p.Graph.HasEdge(u, v) {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	snap, sum, err := m.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := Repair(p, problemOn(t, snap.Graph, p), set, sum.DirtyNodes, snap.Version, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullRebuild || stats.Repaired == 0 {
		t.Fatalf("repair did not take the incremental path with re-draws: %+v", stats)
	}
	checkDigest(t, "hep 0.05 repaired", repaired, goldenHepRepair)
}

func TestGoldenSamplerDigestShard(t *testing.T) {
	p := hepProblem(t)
	slice, err := BuildShardContext(context.Background(), p, Options{Samples: 32, Seed: 7}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "hep 0.05 shard 1/3", slice, goldenHepShard)
}

// BenchmarkSampleRealization times the sampler layer: one realization on
// the pinned hep instance (the forward pass that fills the step-target
// table, then the level sweeps of every batch of bridge ends), with the
// scratch built once, as a build does per worker. The footprints case is
// how Repair samples.
func BenchmarkSampleRealization(b *testing.B) {
	p := hepProblem(b)
	for _, footprints := range []bool{false, true} {
		b.Run(fmt.Sprintf("footprints=%v", footprints), func(b *testing.B) {
			sc := newSampler(p, core.DefaultGreedyHops, footprints).newScratch()
			seeds := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPairs, _, _ = sc.sample(seeds.Uint64(), int32(i))
			}
		})
	}
}

// benchPairs keeps the benchmarked result live.
var benchPairs []Pair
