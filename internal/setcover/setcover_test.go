package setcover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"lcrb/internal/rng"
)

func TestGreedyBasic(t *testing.T) {
	in := Instance{
		Universe: 5,
		Sets: [][]int32{
			{0, 1, 2},
			{2, 3},
			{3, 4},
			{0},
		},
	}
	sol, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Covered != 5 {
		t.Fatalf("Covered = %d, want 5", sol.Covered)
	}
	// Optimal here is {0,1,2} + {3,4} = 2 sets, and greedy finds it.
	if !reflect.DeepEqual(sol.Chosen, []int32{0, 2}) {
		t.Fatalf("Chosen = %v, want [0 2]", sol.Chosen)
	}
	if sol.Cost != 2 {
		t.Fatalf("Cost = %v, want 2", sol.Cost)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	in := Instance{
		Universe: 2,
		Sets:     [][]int32{{0, 1}, {0, 1}, {1, 0}},
	}
	sol, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Chosen, []int32{0}) {
		t.Fatalf("Chosen = %v, want the lowest-index set [0]", sol.Chosen)
	}
}

func TestGreedyUncoverable(t *testing.T) {
	in := Instance{Universe: 3, Sets: [][]int32{{0, 1}}}
	_, err := Greedy(in)
	if !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v, want ErrUncoverable", err)
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	sol, err := Greedy(Instance{Universe: 0, Sets: [][]int32{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 0 || sol.Cost != 0 {
		t.Fatalf("empty universe should need no sets, got %+v", sol)
	}
}

func TestGreedyPartial(t *testing.T) {
	in := Instance{
		Universe: 10,
		Sets: [][]int32{
			{0, 1, 2, 3, 4},
			{5, 6},
			{7}, {8}, {9},
		},
	}
	sol, err := GreedyPartial(in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Covered < 7 {
		t.Fatalf("Covered = %d, want >= 7", sol.Covered)
	}
	if len(sol.Chosen) != 2 {
		t.Fatalf("Chosen = %v, want 2 sets (5+2 elements)", sol.Chosen)
	}
}

func TestGreedyPartialClamps(t *testing.T) {
	in := Instance{Universe: 2, Sets: [][]int32{{0, 1}}}
	sol, err := GreedyPartial(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Covered != 2 {
		t.Fatalf("Covered = %d, want 2", sol.Covered)
	}
	sol, err = GreedyPartial(in, -5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 0 {
		t.Fatalf("need<0 selected %v", sol.Chosen)
	}
}

func TestGreedyWeighted(t *testing.T) {
	// Set 0 covers everything at cost 10; sets 1 and 2 cover halves at
	// cost 1 each. Weighted greedy must prefer the cheap pair.
	in := Instance{
		Universe: 4,
		Sets:     [][]int32{{0, 1, 2, 3}, {0, 1}, {2, 3}},
		Costs:    []float64{10, 1, 1},
	}
	sol, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 2 {
		t.Fatalf("Cost = %v, want 2", sol.Cost)
	}
	if !reflect.DeepEqual(sol.Chosen, []int32{1, 2}) {
		t.Fatalf("Chosen = %v, want [1 2]", sol.Chosen)
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		in   Instance
	}{
		{"negative universe", Instance{Universe: -1}},
		{"element out of range", Instance{Universe: 2, Sets: [][]int32{{5}}}},
		{"negative element", Instance{Universe: 2, Sets: [][]int32{{-1}}}},
		{"cost length mismatch", Instance{Universe: 1, Sets: [][]int32{{0}}, Costs: []float64{1, 2}}},
		{"non-positive cost", Instance{Universe: 1, Sets: [][]int32{{0}}, Costs: []float64{0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Greedy(tt.in); err == nil {
				t.Fatal("invalid instance accepted")
			}
			if _, err := Exact(tt.in); err == nil {
				t.Fatal("invalid instance accepted by Exact")
			}
		})
	}
}

func TestGreedyDuplicateElementsInSet(t *testing.T) {
	in := Instance{Universe: 2, Sets: [][]int32{{0, 0, 0}, {1, 1}}}
	sol, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Covered != 2 || len(sol.Chosen) != 2 {
		t.Fatalf("solution = %+v", sol)
	}
}

func TestExactSmall(t *testing.T) {
	in := Instance{
		Universe: 4,
		Sets:     [][]int32{{0}, {1}, {2}, {3}, {0, 1, 2, 3}},
	}
	sol, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 1 || !reflect.DeepEqual(sol.Chosen, []int32{4}) {
		t.Fatalf("Exact = %+v, want the single big set", sol)
	}
}

func TestExactUncoverable(t *testing.T) {
	in := Instance{Universe: 2, Sets: [][]int32{{0}}}
	if _, err := Exact(in); !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v, want ErrUncoverable", err)
	}
}

func TestExactLimits(t *testing.T) {
	big := Instance{Universe: 1, Sets: make([][]int32, 21)}
	if _, err := Exact(big); err == nil {
		t.Fatal("21 sets accepted")
	}
	wide := Instance{Universe: 64, Sets: [][]int32{{0}}}
	if _, err := Exact(wide); err == nil {
		t.Fatal("64-element universe accepted")
	}
}

// TestGreedyWithinHarmonicBound is the approximation-ratio property test:
// on random coverable instances, greedy's cost is at most H_n times the
// exact optimum (Theorem 2 of the paper via Feige's bound).
func TestGreedyWithinHarmonicBound(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 200; trial++ {
		universe := src.Intn(10) + 1
		nSets := src.Intn(8) + 1
		in := Instance{Universe: universe, Sets: make([][]int32, nSets)}
		for i := range in.Sets {
			size := src.Intn(universe) + 1
			in.Sets[i] = src.SampleInt32(int32(universe), int32(size))
		}
		// Guarantee coverability with singleton sets appended.
		for e := 0; e < universe; e++ {
			in.Sets = append(in.Sets, []int32{int32(e)})
		}
		if len(in.Sets) > 20 {
			in.Sets = in.Sets[:20]
			// Re-check coverability cheaply: keep the trailing singletons
			// for the first elements only; skip the trial if uncoverable.
			if _, err := Greedy(in); err != nil {
				continue
			}
		}
		g, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost > HarmonicBound(universe)*opt.Cost+1e-9 {
			t.Fatalf("greedy cost %v exceeds H_%d * optimal %v", g.Cost, universe, opt.Cost)
		}
	}
}

// TestGreedyCoversEverything is the feasibility property: whenever greedy
// returns without error, the chosen sets cover the whole universe.
func TestGreedyCoversEverything(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		universe := src.Intn(30) + 1
		nSets := src.Intn(12) + 1
		in := Instance{Universe: universe, Sets: make([][]int32, nSets)}
		for i := range in.Sets {
			size := src.Intn(universe) + 1
			in.Sets[i] = src.SampleInt32(int32(universe), int32(size))
		}
		sol, err := Greedy(in)
		if err != nil {
			return errors.Is(err, ErrUncoverable)
		}
		covered := make([]bool, universe)
		for _, si := range sol.Chosen {
			for _, e := range in.Sets[si] {
				covered[e] = true
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		// No set chosen twice.
		seen := make(map[int32]bool)
		for _, si := range sol.Chosen {
			if seen[si] {
				return false
			}
			seen[si] = true
		}
		return sol.Covered == universe
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicBound(t *testing.T) {
	if got := HarmonicBound(1); got != 1 {
		t.Fatalf("H_1 = %v", got)
	}
	if got := HarmonicBound(4); math.Abs(got-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Fatalf("H_4 = %v", got)
	}
	if got := HarmonicBound(0); got != 0 {
		t.Fatalf("H_0 = %v", got)
	}
}

func TestGreedyPartialContextCanceled(t *testing.T) {
	in := Instance{Universe: 4, Sets: [][]int32{{0, 1}, {2}, {3}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := GreedyPartialContext(ctx, in, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol == nil {
		t.Fatal("nil partial solution on cancellation")
	}
	if plain, err := GreedyPartialContext(context.Background(), in, 4); err != nil || plain.Covered != 4 {
		t.Fatalf("live context run: %+v, %v", plain, err)
	}
}

// TestGreedyCountsDistinctGains is the duplicate-element regression: a set
// listing one element three times gains 1, not 3, so {1, 2} alone covers
// the two elements needed.
func TestGreedyCountsDistinctGains(t *testing.T) {
	in := Instance{Universe: 3, Sets: [][]int32{{0, 0, 0}, {1, 2}}}
	sol, err := GreedyPartial(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Chosen, []int32{1}) || sol.Covered != 2 {
		t.Fatalf("solution = %+v, want Chosen [1] covering 2", sol)
	}
}

// scanGreedyPartial is the reference selector: the full rescan of every
// set in every round that the heap replaced, refreshing a cached gain only
// when its upper bound could beat the round's best. Its refresh counts
// distinct uncovered elements, as the initial gains do.
func scanGreedyPartial(in Instance, need int) (*Solution, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	need = max(0, min(need, in.Universe))
	covered := make([]bool, in.Universe)
	cost := func(i int) float64 {
		if in.Costs == nil {
			return 1
		}
		return in.Costs[i]
	}
	distinctUncovered := func(set []int32) int {
		seen := make(map[int32]bool, len(set))
		for _, e := range set {
			if !covered[e] {
				seen[e] = true
			}
		}
		return len(seen)
	}
	gains := make([]int, len(in.Sets))
	for i, set := range in.Sets {
		gains[i] = distinctUncovered(set)
	}
	used := make([]bool, len(in.Sets))
	sol := &Solution{}
	for sol.Covered < need {
		best, bestRatio := -1, -math.MaxFloat64
		for i := range in.Sets {
			if used[i] || gains[i] == 0 {
				continue
			}
			if ratio := float64(gains[i]) / cost(i); ratio <= bestRatio && best >= 0 {
				continue
			}
			gains[i] = distinctUncovered(in.Sets[i])
			if ratio := float64(gains[i]) / cost(i); gains[i] > 0 && ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			return sol, fmt.Errorf("%w: %d of %d elements required, %d covered",
				ErrUncoverable, need, in.Universe, sol.Covered)
		}
		used[best] = true
		for _, e := range in.Sets[best] {
			if !covered[e] {
				covered[e] = true
				sol.Covered++
			}
		}
		sol.Chosen = append(sol.Chosen, int32(best))
		sol.Cost += cost(best)
	}
	return sol, nil
}

// TestGreedyMatchesScanReference checks the lazy heap against the rescan
// reference on random instances: unit and weighted costs (with many tied
// ratios), duplicate elements, partial targets and uncoverable universes.
// Solutions and errors must be equal.
func TestGreedyMatchesScanReference(t *testing.T) {
	src := rng.New(1801)
	for trial := 0; trial < 3000; trial++ {
		universe := src.Intn(40)
		in := Instance{Universe: universe, Sets: make([][]int32, src.Intn(30))}
		for i := range in.Sets {
			set := make([]int32, src.Intn(8))
			for j := range set {
				if universe > 0 {
					set[j] = int32(src.Intn(universe))
				}
			}
			if universe == 0 {
				set = nil
			}
			in.Sets[i] = set
		}
		if trial%2 == 1 {
			in.Costs = make([]float64, len(in.Sets))
			for i := range in.Costs {
				in.Costs[i] = float64(1 + src.Intn(4)) // small range: ties are common
			}
		}
		need := universe
		if trial%3 != 0 {
			need = src.Intn(universe + 2)
		}
		got, gotErr := GreedyPartial(in, need)
		want, wantErr := scanGreedyPartial(in, need)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: instance %+v need %d:\nheap %+v, %v\nscan %+v, %v",
				trial, in, need, got, gotErr, want, wantErr)
		}
	}
}
