package core

import (
	"fmt"
	"runtime"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
)

// benchProblem builds the instance BenchmarkGreedySigma solves: a planted-
// community network large enough that σ̂ evaluation dominates the solve.
func benchProblem(b *testing.B) *Problem {
	b.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: 600, AvgDegree: 8, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		b.Fatal(err)
	}
	comm := planted.ClosestBySize(80)
	members := planted.Members(comm)
	p, err := NewProblem(net.Graph, planted.Assign(), comm, []int32{members[0], members[1], members[2]})
	if err != nil {
		b.Fatal(err)
	}
	if p.NumEnds() == 0 {
		b.Skip("no bridge ends for this draw")
	}
	return p
}

// BenchmarkGreedySigma times the full LCRB-P greedy (CELF) with serial and
// parallel σ̂ evaluation. The selections are bit-identical across the
// sub-benchmarks (TestGreedyBitIdenticalAcrossWorkers); only wall-clock
// differs. `make bench` runs it once; BENCH_perf.json records a
// -benchtime 3x -count 5 run with its environment.
func BenchmarkGreedySigma(b *testing.B) {
	p := benchProblem(b)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Greedy(p, GreedyOptions{
					Alpha: 0.9, Samples: 20, Seed: 7, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Protectors) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// enronSCBGProblem is offline-enron's instance: the Enron profile at
// scale 1 (36,692 nodes), the Louvain community closest to the paper's
// |C| = 2631, and 5% of it as rumor seeds, drawn as the benchmark's first
// draw at seed 1 draws them.
func enronSCBGProblem(b *testing.B) *Problem {
	b.Helper()
	net, err := gen.Enron(1, 0x0601)
	if err != nil {
		b.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 0x0602})
	comm := part.ClosestBySize(2631)
	members := part.Members(comm)
	var rumors []int32
	for _, i := range rng.New(1_000_003).SampleInt32(int32(len(members)), int32(0.05*float64(len(members)))) {
		rumors = append(rumors, members[i])
	}
	p, err := NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSCBG times LCRB-D at α = 0.9 on offline-enron's instance:
// SCBG on rrset's cover (the pair index, then exact-gain decrements),
// against its set-cover oracle (bridge.Invert, then setcover's lazy ratio
// heap). Both build the BBSTs with bridge.Build on every core and select
// the same protectors (TestSCBGMatchesSetCoverOracle).
func BenchmarkSCBG(b *testing.B) {
	p := enronSCBGProblem(b)
	for _, engine := range []struct {
		name  string
		solve func() *SCBGResult
	}{
		{"rrset", func() *SCBGResult {
			res, err := SCBG(p, SCBGOptions{Alpha: 0.9})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}},
		{"setcover", func() *SCBGResult { return setCoverSCBG(b, p, 0.9) }},
	} {
		b.Run("engine="+engine.name, func(b *testing.B) {
			var res *SCBGResult
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = engine.solve()
			}
			b.ReportMetric(float64(len(res.Protectors)), "protectors")
			b.ReportMetric(float64(res.Candidates), "candidates")
		})
	}
}
