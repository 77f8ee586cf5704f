package core

import (
	"fmt"
	"runtime"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/gen"
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
