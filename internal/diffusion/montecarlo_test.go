package diffusion

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"lcrb/internal/gen"
)

func TestMonteCarloParallelMatchesSerial(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 700, 21)
	if err != nil {
		t.Fatal(err)
	}
	rumors := []int32{0, 1}
	protectors := []int32{2}
	opts := Options{MaxHops: 20, RecordHops: true}

	serial, err := MonteCarlo{Model: OPOAO{}, Samples: 24, Seed: 9}.
		RunContext(context.Background(), g, rumors, protectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, -1} {
		parallel, err := MonteCarlo{Model: OPOAO{}, Samples: 24, Seed: 9, Workers: workers}.
			RunContext(context.Background(), g, rumors, protectors, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parallel.MeanInfected != serial.MeanInfected ||
			parallel.MeanProtected != serial.MeanProtected {
			t.Fatalf("workers=%d: means diverged: %.4f/%.4f vs %.4f/%.4f",
				workers, parallel.MeanInfected, parallel.MeanProtected,
				serial.MeanInfected, serial.MeanProtected)
		}
		for i := range serial.InfectedProb {
			if math.Abs(parallel.InfectedProb[i]-serial.InfectedProb[i]) > 1e-12 {
				t.Fatalf("workers=%d: InfectedProb[%d] diverged", workers, i)
			}
		}
		for i := range serial.MeanInfectedAtHop {
			if math.Abs(parallel.MeanInfectedAtHop[i]-serial.MeanInfectedAtHop[i]) > 1e-9 {
				t.Fatalf("workers=%d: hop series diverged at %d", workers, i)
			}
		}
	}
}

func TestMonteCarloWorkersExceedSamples(t *testing.T) {
	g := pathGraph(t, 4)
	agg, err := MonteCarlo{Model: DOAM{}, Samples: 2, Seed: 1, Workers: 16}.
		RunContext(context.Background(), g, []int32{0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.MeanInfected != 4 {
		t.Fatalf("MeanInfected = %v", agg.MeanInfected)
	}
}

func TestMonteCarloParallelErrorPropagates(t *testing.T) {
	g := pathGraph(t, 3)
	// Out-of-range seed makes every sample fail.
	_, err := MonteCarlo{Model: OPOAO{}, Samples: 8, Seed: 1, Workers: 4}.
		RunContext(context.Background(), g, []int32{99}, nil, Options{})
	if err == nil {
		t.Fatal("sample error swallowed by the parallel path")
	}
}

// TestMonteCarloBitIdentical is the exact version of the tolerance checks
// above: every Aggregate field must be byte-identical between the serial
// and the parallel runs. Exactness holds because each per-sample
// contribution is an integer count, so the float64 sums commute without
// rounding — the guarantee the parallel greedy σ̂ evaluator relies on.
func TestMonteCarloBitIdentical(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 500, 33)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		mc   MonteCarlo
		opts Options
	}{
		{"opoao-hops", MonteCarlo{Model: OPOAO{}, Samples: 20, Seed: 5}, Options{MaxHops: 15, RecordHops: true}},
		{"doam", MonteCarlo{Model: DOAM{}, Samples: 20, Seed: 6}, Options{MaxHops: 15}},
		{"doam-hops", MonteCarlo{Model: DOAM{}, Samples: 20, Seed: 7}, Options{MaxHops: 15, RecordHops: true}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			serial, err := tt.mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2, 3}, tt.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
				mc := tt.mc
				mc.Workers = workers
				parallel, err := mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2, 3}, tt.opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if parallel.Samples != serial.Samples {
					t.Fatalf("workers=%d: Samples = %d, want %d", workers, parallel.Samples, serial.Samples)
				}
				if parallel.MeanInfected != serial.MeanInfected {
					t.Fatalf("workers=%d: MeanInfected = %v, want %v", workers, parallel.MeanInfected, serial.MeanInfected)
				}
				if parallel.MeanProtected != serial.MeanProtected {
					t.Fatalf("workers=%d: MeanProtected = %v, want %v", workers, parallel.MeanProtected, serial.MeanProtected)
				}
				if !reflect.DeepEqual(parallel.InfectedProb, serial.InfectedProb) {
					t.Fatalf("workers=%d: InfectedProb diverged", workers)
				}
				if !reflect.DeepEqual(parallel.MeanInfectedAtHop, serial.MeanInfectedAtHop) {
					t.Fatalf("workers=%d: MeanInfectedAtHop diverged", workers)
				}
				if !reflect.DeepEqual(parallel.MeanProtectedAtHop, serial.MeanProtectedAtHop) {
					t.Fatalf("workers=%d: MeanProtectedAtHop diverged", workers)
				}
			}
		})
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (MonteCarlo{Model: nil, Samples: 5}).RunContext(context.Background(), g, []int32{0}, nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := (MonteCarlo{Model: OPOAO{}, Samples: 0}).RunContext(context.Background(), g, []int32{0}, nil, Options{}); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestMonteCarloReproducible(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	mc := MonteCarlo{Model: OPOAO{}, Samples: 10, Seed: 77}
	a, err := mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2}, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2}, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanInfected != b.MeanInfected || a.MeanProtected != b.MeanProtected {
		t.Fatal("same seed produced different Monte-Carlo aggregates")
	}
}

func TestMonteCarloAggregates(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 320, 11)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := MonteCarlo{Model: OPOAO{}, Samples: 25, Seed: 5}.
		RunContext(context.Background(), g, []int32{0}, nil, Options{MaxHops: 15, RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Samples != 25 {
		t.Fatalf("Samples = %d", agg.Samples)
	}
	if agg.MeanInfected < 1 {
		t.Fatalf("MeanInfected = %v, the seed alone is 1", agg.MeanInfected)
	}
	if len(agg.MeanInfectedAtHop) != 16 {
		t.Fatalf("hop series length = %d, want 16", len(agg.MeanInfectedAtHop))
	}
	// Per-node probabilities must average to the mean count.
	var sum float64
	for _, p := range agg.InfectedProb {
		if p < 0 || p > 1 {
			t.Fatalf("InfectedProb out of range: %v", p)
		}
		sum += p
	}
	if diff := sum - agg.MeanInfected; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum of InfectedProb %.4f != MeanInfected %.4f", sum, agg.MeanInfected)
	}
	// Padded series end at the mean final count.
	last := agg.MeanInfectedAtHop[len(agg.MeanInfectedAtHop)-1]
	if diff := last - agg.MeanInfected; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("series tail %.4f != MeanInfected %.4f", last, agg.MeanInfected)
	}
}

func TestMonteCarloDeterministicModel(t *testing.T) {
	g := pathGraph(t, 4)
	agg, err := MonteCarlo{Model: DOAM{}, Samples: 3, Seed: 1}.RunContext(context.Background(), g, []int32{0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.MeanInfected != 4 {
		t.Fatalf("MeanInfected = %v, want exactly 4", agg.MeanInfected)
	}
	for v, p := range agg.InfectedProb {
		if p != 1 {
			t.Fatalf("InfectedProb[%d] = %v, want 1", v, p)
		}
	}
}

func TestAccumulatePadded(t *testing.T) {
	acc := make([]float64, 4)
	accumulatePadded(acc, []int32{1, 3})
	want := []float64{1, 3, 3, 3}
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("acc = %v, want %v", acc, want)
		}
	}
	accumulatePadded(acc, nil) // no-op
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("nil series changed acc to %v", acc)
		}
	}
}
