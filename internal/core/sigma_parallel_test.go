package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
)

// batchProblem builds a mid-sized instance whose greedy runs several
// selection rounds over a real candidate set — big enough that the
// batched paths (plain rounds, CELF round 0) actually fan out.
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
// byte-identical for every worker count, for both engines and both the
// lazy and the plain loop. Running it under -race (the CI gate does) also
// serves as the regression test for the seed-set aliasing bug: before
// extensions were copied per evaluation, the batched path raced on the
// shared backing array of the selected slice.
func TestGreedyBitIdenticalAcrossWorkers(t *testing.T) {
	for _, tt := range []struct {
		name string
		p    *Problem
	}{
		{"fixture", fixtureProblem(t)},
		{"community", batchProblem(t)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for _, engine := range greedyEngines {
				for _, plain := range []bool{false, true} {
					opts := GreedyOptions{Alpha: 0.9, Samples: 12, Seed: 3, Plain: plain, Workers: 1, Realization: engine.realization}
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
							t.Fatalf("%s plain=%v workers=%d: %v", engine.name, plain, workers, err)
						}
						if !reflect.DeepEqual(signatureOf(got), want) {
							t.Fatalf("%s plain=%v workers=%d diverged:\n got %+v\nwant %+v",
								engine.name, plain, workers, signatureOf(got), want)
						}
					}
				}
			}
		})
	}
}

// TestExtendSetCopies is the aliasing regression test at the unit level:
// two extensions of the same selected prefix must not share backing
// memory. With append(selected, u) they do whenever selected has spare
// capacity — the second append overwrites the first extension's tail.
func TestExtendSetCopies(t *testing.T) {
	selected := make([]int32, 2, 8) // spare capacity, as in the greedy loops
	selected[0], selected[1] = 10, 20
	a := extendSet(selected, 30)
	b := extendSet(selected, 40)
	if a[2] != 30 || b[2] != 40 {
		t.Fatalf("extensions corrupted: a = %v, b = %v", a, b)
	}
	a[0] = 99
	if selected[0] != 10 || b[0] != 10 {
		t.Fatalf("extension shares backing memory: selected = %v, b = %v", selected, b)
	}
	if len(selected) != 2 {
		t.Fatalf("selected mutated: %v", selected)
	}
}

// TestGreedyFailedEvaluationNotCharged pins the budget-accounting fix: a
// σ̂ evaluation that fails mid-flight consumes no MaxEvaluations budget and
// does not inflate GreedyResult.Evaluations. With Samples = 5 the baseline
// completes on invocations 1-5 (one charged evaluation) and invocation 8
// fails inside the first selection round's first candidate — so exactly
// one evaluation may be reported.
func TestGreedyFailedEvaluationNotCharged(t *testing.T) {
	p := fixtureProblem(t)
	for _, plain := range []bool{false, true} {
		fault := &diffusion.Fault{FailOn: 8}
		res, err := Greedy(p, GreedyOptions{
			Alpha: 0.9, Samples: 5, Seed: 1, Plain: plain,
			Realization: fault.Realization(diffusion.RunOPOAORealization),
		})
		if !errors.Is(err, diffusion.ErrInjected) {
			t.Fatalf("plain=%v: err = %v, want ErrInjected", plain, err)
		}
		if res == nil || !res.Partial {
			t.Fatalf("plain=%v: res = %+v, want non-nil partial result", plain, res)
		}
		if res.Evaluations != 1 {
			t.Fatalf("plain=%v: Evaluations = %d, want 1 (the failed evaluation must not be charged)",
				plain, res.Evaluations)
		}
	}
}

// TestSigmaCacheMemoizes checks the σ̂ memo: re-estimating a seed set the
// evaluator has already scored (in any order) is free — same value, no
// realizations, no budget charge.
func TestSigmaCacheMemoizes(t *testing.T) {
	p := fixtureProblem(t)
	ev := newTestEvaluator(p, 8, 1)
	a, err := ev.estimate([]int32{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ev.evals != 1 {
		t.Fatalf("evals = %d after first estimate", ev.evals)
	}
	b, err := ev.estimate([]int32{4, 3}) // same set, different order
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("cache returned %v, want %v", b, a)
	}
	if ev.evals != 1 {
		t.Fatalf("evals = %d after cache hit, want 1", ev.evals)
	}
	// A cache hit must stay free even once the budget is spent.
	ev.maxEvals = 1
	if _, err := ev.estimate([]int32{3, 4}); err != nil {
		t.Fatalf("cache hit rejected under exhausted budget: %v", err)
	}
	if _, err := ev.estimate([]int32{3}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("uncached estimate err = %v, want ErrBudgetExhausted", err)
	}
}

// TestEstimateBatchMatchesSequential checks that one batched call is
// semantically the sequence of single estimates: same values, same charge
// count, duplicates resolved from the cache.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	p := fixtureProblem(t)
	sets := [][]int32{{3}, {4}, {3, 4}, {4, 3}, {3}, nil}
	for _, workers := range []int{1, 4} {
		batchEv := newTestEvaluator(p, 10, workers)
		vals, err := batchEv.estimateBatch(sets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		seqEv := newTestEvaluator(p, 10, 1)
		for i, s := range sets {
			want, err := seqEv.estimate(s)
			if err != nil {
				t.Fatal(err)
			}
			if vals[i] != want {
				t.Fatalf("workers=%d: batch[%d] = %v, want %v", workers, i, vals[i], want)
			}
		}
		// {4,3} and the second {3} are duplicates; nil, {3}, {4}, {3,4}
		// are the four distinct charges.
		if batchEv.evals != seqEv.evals || batchEv.evals != 4 {
			t.Fatalf("workers=%d: batch charged %d, sequential %d, want 4",
				workers, batchEv.evals, seqEv.evals)
		}
	}
}

// TestEstimateBatchBudgetChargesPrefix checks deterministic submission-
// order accounting: when MaxEvaluations expires inside a batch, exactly
// the submissions before the cut are charged — for every worker count.
func TestEstimateBatchBudgetChargesPrefix(t *testing.T) {
	p := fixtureProblem(t)
	sets := [][]int32{{3}, {4}, {5}, {3, 4}}
	for _, workers := range []int{1, 4} {
		ev := newTestEvaluator(p, 10, workers)
		ev.maxEvals = 2
		_, err := ev.estimateBatch(sets)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExhausted", workers, err)
		}
		if ev.evals != 2 {
			t.Fatalf("workers=%d: charged %d evaluations, want 2", workers, ev.evals)
		}
	}
}

// TestGreedyPanickingRealizationContained: a panicking custom realization
// must surface as an error wrapping diffusion.ErrPanic under the usual
// partial-result contract — with worker goroutines in play, an uncaught
// panic would kill the process instead of failing the solve.
func TestGreedyPanickingRealizationContained(t *testing.T) {
	p := fixtureProblem(t)
	for _, workers := range []int{1, 4} {
		fault := &diffusion.Fault{FailOn: 8, Panic: true}
		res, err := Greedy(p, GreedyOptions{
			Alpha: 0.9, Samples: 5, Seed: 1, Workers: workers,
			Realization: fault.Realization(diffusion.RunOPOAORealization),
		})
		if !errors.Is(err, diffusion.ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPanic", workers, err)
		}
		if res == nil || !res.Partial {
			t.Fatalf("workers=%d: res = %+v, want non-nil partial result", workers, res)
		}
	}
}

// newTestEvaluator builds a sigmaEvaluator the way GreedyContext does,
// with a fixed sample count and worker pool.
func newTestEvaluator(p *Problem, samples, workers int) *sigmaEvaluator {
	realSeeds := make([]uint64, samples)
	src := rng.New(99)
	for i := range realSeeds {
		realSeeds[i] = src.Uint64()
	}
	return &sigmaEvaluator{
		ctx:       context.Background(),
		p:         p,
		realSeeds: realSeeds,
		maxHops:   DefaultGreedyHops,
		run:       diffusion.RunOPOAORealization,
		workers:   workers,
		cache:     make(map[string]int),
	}
}
