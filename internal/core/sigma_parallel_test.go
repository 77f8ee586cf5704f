package core

import (
	"reflect"
	"runtime"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/gen"
)

// batchProblem builds a mid-sized instance whose greedy runs several
// selection rounds over a real candidate set.
func batchProblem(t *testing.T) *Problem {
	t.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: 300, AvgDegree: 6, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(40)
	members := planted.Members(comm)
	p, err := NewProblem(net.Graph, planted.Assign(), comm, []int32{members[0], members[1]})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	return p
}

// greedySignature is the part of a GreedyResult the worker-count
// invariance guarantee covers.
type greedySignature struct {
	Protectors    []int32
	Gains         []float64
	Evaluations   int
	ProtectedEnds float64
	BaselineEnds  float64
	Achieved      bool
}

func signatureOf(r *GreedyResult) greedySignature {
	return greedySignature{
		Protectors:    r.Protectors,
		Gains:         r.Gains,
		Evaluations:   r.Evaluations,
		ProtectedEnds: r.ProtectedEnds,
		BaselineEnds:  r.BaselineEnds,
		Achieved:      r.Achieved,
	}
}

// TestGreedyBitIdenticalAcrossWorkers is the worker-count invariance
// guarantee: Protectors, Gains, Evaluations and the σ̂ scores are
// byte-identical for every worker count, for both the lazy and the plain
// loop. The CI gate runs it under -race, which watches the concurrent
// realization sampling and pair-index build.
func TestGreedyBitIdenticalAcrossWorkers(t *testing.T) {
	for _, tt := range []struct {
		name string
		p    *Problem
	}{
		{"fixture", fixtureProblem(t)},
		{"community", batchProblem(t)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for _, plain := range []bool{false, true} {
				opts := GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3, Plain: plain, Workers: 1}
				serial, err := Greedy(tt.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := signatureOf(serial)
				for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), -1} {
					par := opts
					par.Workers = workers
					got, err := Greedy(tt.p, par)
					if err != nil {
						t.Fatalf("plain=%v workers=%d: %v", plain, workers, err)
					}
					if !reflect.DeepEqual(signatureOf(got), want) {
						t.Fatalf("plain=%v workers=%d diverged:\n got %+v\nwant %+v",
							plain, workers, signatureOf(got), want)
					}
				}
			}
		})
	}
}
