package sketch

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"lcrb/internal/rng"
)

// TestBitsetKernelsAgainstNaive drives the word-parallel kernels against a
// []bool reference on randomized bit patterns, including the awkward sizes
// (0, 1, 63, 64, 65) where the word packing earns its off-by-ones.
func TestBitsetKernelsAgainstNaive(t *testing.T) {
	src := rng.New(9001)
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		for trial := 0; trial < 10; trial++ {
			b, bRef := NewBitset(n), make([]bool, n)
			m, mRef := NewBitset(n), make([]bool, n)
			for i := 0; i < n/2; i++ {
				bi, mi := int32(src.Intn(n)), int32(src.Intn(n))
				b.Set(bi)
				bRef[bi] = true
				m.Set(mi)
				mRef[mi] = true
			}
			wantCount, wantAndNot := 0, 0
			for i := 0; i < n; i++ {
				if got := b.Test(int32(i)); got != bRef[i] {
					t.Fatalf("n=%d Test(%d) = %v, want %v", n, i, got, bRef[i])
				}
				if bRef[i] {
					wantCount++
					if !mRef[i] {
						wantAndNot++
					}
				}
			}
			if got := b.Count(); got != wantCount {
				t.Fatalf("n=%d Count = %d, want %d", n, got, wantCount)
			}
			if got := b.AndNotCount(m); got != wantAndNot {
				t.Fatalf("n=%d AndNotCount = %d, want %d", n, got, wantAndNot)
			}
			b.OrInPlace(m)
			for i := 0; i < n; i++ {
				if b.Test(int32(i)) != (bRef[i] || mRef[i]) {
					t.Fatalf("n=%d OrInPlace wrong at bit %d", n, i)
				}
			}
		}
	}
}

// randomSyntheticSet fabricates a Set directly from random pairs — no
// diffusion involved — to exercise the index on shapes a build never
// produces (empty rows, sparse node ids, duplicate node patterns).
func randomSyntheticSet(src *rng.Source, numPairs, maxNode int) *Set {
	set := &Set{Samples: numPairs + 1, NumEnds: 1, BaselinePairs: src.Intn(5)}
	for pi := 0; pi < numPairs; pi++ {
		k := 1 + src.Intn(4)
		if k > maxNode {
			k = maxNode
		}
		nodes := src.SampleInt32(int32(maxNode), int32(k))
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		set.Pairs = append(set.Pairs, Pair{Realization: int32(pi), End: 0, Nodes: nodes})
	}
	set.buildIndex(1)
	return set
}

// disableArena forces the CSR fallback path, as if the rows had blown
// arenaBudgetBytes, so both gain/commit implementations get the same
// differential coverage.
func disableArena(set *Set) { set.index.arena = nil }

// checkIndexMatchesReference asserts every query the live index answers
// agrees pair for pair with the retired map/bool-slice machinery.
func checkIndexMatchesReference(t *testing.T, src *rng.Source, set *Set) {
	t.Helper()
	ri := NewReferenceIndex(set)
	ix := set.index

	if got, want := set.Candidates(), ri.Candidates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Candidates = %v, want %v", got, want)
	}

	// Random protector subsets: Sigma and the covered-pair count must match
	// the map-based probes exactly (both are integer counts under a common
	// divisor, so == is the right comparison even through the float).
	cands := set.Candidates()
	for trial := 0; trial < 20; trial++ {
		var protectors []int32
		for _, u := range cands {
			if src.Bool(0.3) {
				protectors = append(protectors, u)
			}
		}
		// Throw in nodes outside the candidate set; they must contribute 0.
		protectors = append(protectors, -1, int32(len(ix.rowOf))+7)
		if got, want := set.coveredPairs(protectors), ri.CoveredPairs(protectors); got != want {
			t.Fatalf("coveredPairs(%v) = %d, want %d", protectors, got, want)
		}
		if got, want := set.Sigma(protectors), ri.Sigma(protectors); got != want {
			t.Fatalf("Sigma(%v) = %v, want %v", protectors, got, want)
		}
	}

	// Marginal gains under random partial coverage: the AND-NOT popcount
	// (or CSR walk) must equal the []bool recount for every candidate row.
	for trial := 0; trial < 10; trial++ {
		covered := NewBitset(ix.numPairs)
		coveredRef := make([]bool, len(set.Pairs))
		for pi := range set.Pairs {
			if src.Bool(0.4) {
				covered.Set(int32(pi))
				coveredRef[pi] = true
			}
		}
		for r, u := range ix.nodes {
			if got, want := ix.gain(int32(r), covered), ri.Gain(u, coveredRef); got != want {
				t.Fatalf("gain(node %d) = %d, want %d", u, got, want)
			}
		}
	}

	// commit must mark exactly the row's pairs.
	for r, u := range ix.nodes {
		covered := NewBitset(ix.numPairs)
		ix.commit(int32(r), covered)
		if got, want := covered.Count(), len(ri.byNode[u]); got != want {
			t.Fatalf("commit(node %d) covered %d pairs, want %d", u, got, want)
		}
		for _, pi := range ri.byNode[u] {
			if !covered.Test(pi) {
				t.Fatalf("commit(node %d) missed pair %d", u, pi)
			}
		}
	}
}

func TestPairIndexMatchesReferenceOnBuiltSketches(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	for _, samples := range []int{1, 16, 64} {
		set, err := Build(p, Options{Samples: samples, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesReference(t, rng.New(uint64(samples)), set)
		disableArena(set)
		checkIndexMatchesReference(t, rng.New(uint64(samples)+1), set)
	}
}

func TestPairIndexMatchesReferenceOnSyntheticSketches(t *testing.T) {
	src := rng.New(515)
	for trial := 0; trial < 15; trial++ {
		set := randomSyntheticSet(src, 1+src.Intn(200), 2+src.Intn(120))
		checkIndexMatchesReference(t, src, set)
		disableArena(set)
		checkIndexMatchesReference(t, src, set)
	}
}

// TestPairIndexRowInvariants pins the CSR shape: rows ascend by node, each
// row's pair list ascends, rowOf inverts nodes, and the arena rows mirror
// the CSR lists bit for bit.
func TestPairIndexRowInvariants(t *testing.T) {
	src := rng.New(616)
	for trial := 0; trial < 10; trial++ {
		set := randomSyntheticSet(src, 1+src.Intn(150), 2+src.Intn(90))
		ix := set.index
		if ix.numPairs != len(set.Pairs) || ix.words != (len(set.Pairs)+63)/64 {
			t.Fatalf("dims = (%d, %d) for %d pairs", ix.numPairs, ix.words, len(set.Pairs))
		}
		for r, u := range ix.nodes {
			if r > 0 && ix.nodes[r-1] >= u {
				t.Fatalf("nodes not strictly ascending at row %d: %v", r, ix.nodes)
			}
			if ix.row(u) != int32(r) {
				t.Fatalf("row(%d) = %d, want %d", u, ix.row(u), r)
			}
			list := ix.rowList(int32(r))
			if len(list) == 0 {
				t.Fatalf("node %d holds an empty row", u)
			}
			for i := 1; i < len(list); i++ {
				if list[i-1] >= list[i] {
					t.Fatalf("row %d pair list not strictly ascending: %v", r, list)
				}
			}
			row := ix.rowBits(int32(r))
			if row == nil {
				t.Fatal("arena unexpectedly off on a tiny index")
			}
			if row.Count() != len(list) {
				t.Fatalf("arena row %d holds %d bits, want %d", r, row.Count(), len(list))
			}
			for _, pi := range list {
				if !row.Test(pi) {
					t.Fatalf("arena row %d missing pair %d", r, pi)
				}
			}
		}
		if ix.row(-5) != -1 || ix.row(int32(len(ix.rowOf))+3) != -1 {
			t.Fatal("out-of-range nodes must map to row -1")
		}
	}
}

// serialPairIndex is the single-threaded inversion the chunked transpose
// replaced: one counting pass, rows in ascending node order, one scatter
// in pair order, then the arena row by row. It is the oracle
// TestPairIndexBitIdenticalAcrossWorkers holds newPairIndex to.
func serialPairIndex(pairs []Pair) *pairIndex {
	ix := &pairIndex{numPairs: len(pairs), words: (len(pairs) + 63) / 64}
	maxNode := int32(-1)
	for _, pair := range pairs {
		for _, u := range pair.Nodes {
			maxNode = max(maxNode, u)
		}
	}
	ix.rowOf = make([]int32, maxNode+1)
	counts := make([]int32, maxNode+1)
	for _, pair := range pairs {
		for _, u := range pair.Nodes {
			counts[u]++
		}
	}
	ix.off = []int32{0}
	for u := int32(0); u <= maxNode; u++ {
		ix.rowOf[u] = -1
		if counts[u] > 0 {
			ix.rowOf[u] = int32(len(ix.nodes))
			ix.nodes = append(ix.nodes, u)
			ix.off = append(ix.off, ix.off[len(ix.off)-1]+counts[u])
		}
	}
	ix.pairs = make([]int32, ix.off[len(ix.nodes)])
	cursor := make([]int32, len(ix.nodes))
	for pi, pair := range pairs {
		for _, u := range pair.Nodes {
			r := ix.rowOf[u]
			ix.pairs[ix.off[r]+cursor[r]] = int32(pi)
			cursor[r]++
		}
	}
	if n := len(ix.nodes) * ix.words * 8; n > 0 && n <= arenaBudgetBytes {
		ix.arena = make([]uint64, len(ix.nodes)*ix.words)
		for r := range ix.nodes {
			for _, pi := range ix.rowList(int32(r)) {
				ix.rowBits(int32(r)).Set(pi)
			}
		}
	}
	return ix
}

// TestPairIndexBitIdenticalAcrossWorkers holds the chunked parallel
// transpose to the serial inversion field for field, for every worker
// count: on built sketches, on synthetic ones with fewer pairs than
// workers (down to none), and with the arena forced off.
func TestPairIndexBitIdenticalAcrossWorkers(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	var sets []*Set
	for _, samples := range []int{1, 16, 64} {
		set, err := Build(p, Options{Samples: samples, Seed: 7, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	src := rng.New(717)
	for _, numPairs := range []int{0, 1, 2, 3, 6, 7, 8, 150} {
		sets = append(sets, randomSyntheticSet(src, numPairs, 2+src.Intn(90)))
	}
	for _, budget := range []int{arenaBudgetBytes, 0} {
		t.Run(fmt.Sprintf("arenaBudget=%d", budget), func(t *testing.T) {
			defer func(saved int) { arenaBudgetBytes = saved }(arenaBudgetBytes)
			arenaBudgetBytes = budget
			for i, set := range sets {
				want := serialPairIndex(set.Pairs)
				if (want.arena != nil) != (budget > 0 && len(want.nodes) > 0) {
					t.Fatalf("set %d: arena present = %v under budget %d", i, want.arena != nil, budget)
				}
				for _, workers := range []int{1, 2, 3, 7} {
					if got := newPairIndex(set.Pairs, workers); !reflect.DeepEqual(got, want) {
						t.Fatalf("set %d (%d pairs), workers=%d: index differs from the serial inversion", i, len(set.Pairs), workers)
					}
				}
			}
		})
	}
	// A build's own index, made on its workers, is the serial one too.
	for i, set := range sets[:3] {
		if !reflect.DeepEqual(set.index, serialPairIndex(set.Pairs)) {
			t.Fatalf("built set %d: index differs from the serial inversion", i)
		}
	}
}

// BenchmarkPairIndex times the node → pair inversion, CSR and bitset
// arena, of a DefaultSamples build on the pinned hep instance, serial and
// on two workers.
func BenchmarkPairIndex(b *testing.B) {
	set, err := Build(hepProblem(b), Options{Seed: 7, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchIndex = newPairIndex(set.Pairs, workers)
			}
		})
	}
}

// benchIndex keeps the benchmarked index live.
var benchIndex *pairIndex

// TestSolveGreedyRISMatchesReference is the end-to-end differential: on the
// same sketch the bitset solver and the retired map/bool-slice solver must
// return DeepEqual results — identical protector sequence, gains,
// evaluation count, σ̂ — for a sweep of alphas and budgets.
func TestSolveGreedyRISMatchesReference(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	for _, samples := range []int{8, 64} {
		set, err := Build(p, Options{Samples: samples, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ri := NewReferenceIndex(set)
		for _, opts := range []SolveOptions{
			{},
			{Alpha: 0.5},
			{Alpha: 0.9},
			{Alpha: 0.999},
			{Alpha: 0.9, MaxProtectors: 1},
			{Alpha: 0.9, MaxProtectors: 3},
		} {
			got, err := SolveGreedyRIS(p, set, opts)
			if err != nil {
				t.Fatalf("samples=%d opts=%+v: %v", samples, opts, err)
			}
			want, err := ri.SolveGreedyRISContext(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("samples=%d opts=%+v reference: %v", samples, opts, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("samples=%d opts=%+v:\nbitset    %+v\nreference %+v", samples, opts, got, want)
			}
		}
		// The CSR fallback path must select the same sequence too.
		disableArena(set)
		got, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ri.SolveGreedyRISContext(context.Background(), p, SolveOptions{Alpha: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CSR fallback diverged from reference:\n%+v\n%+v", got, want)
		}
	}

	// Tie-heavy sweep for the bucket queue: few realizations make gains
	// small integers shared by many candidates, and the budgets are the
	// ones that stop while the last selection's gain bucket still holds
	// other rows — the next selection of the unbudgeted solve ties it.
	midBucket := 0
	for _, seed := range []uint64{41, 42, 43, 44} {
		p := testProblem(t, 300, 40, seed)
		for _, samples := range []int{1, 8, 64, 256} {
			set, err := Build(p, Options{Samples: samples, Seed: seed + 100})
			if err != nil {
				t.Fatal(err)
			}
			ri := NewReferenceIndex(set)
			var cases []SolveOptions
			for _, alpha := range []float64{0.3, 0.7, 0.9, 0.99, 0.999} {
				cases = append(cases, SolveOptions{Alpha: alpha})
				full, err := ri.SolveGreedyRISContext(context.Background(), p, SolveOptions{Alpha: alpha})
				if err != nil {
					t.Fatal(err)
				}
				var ties []int
				for k := 1; k < len(full.Gains); k++ {
					if full.Gains[k] == full.Gains[k-1] {
						ties = append(ties, k)
					}
				}
				if len(ties) > 0 {
					for _, k := range []int{ties[0], ties[len(ties)/2], ties[len(ties)-1]} {
						cases = append(cases, SolveOptions{Alpha: alpha, MaxProtectors: k})
						midBucket++
					}
				}
			}
			for _, arena := range []bool{true, false} {
				if !arena {
					disableArena(set)
				}
				for _, opts := range cases {
					got, err := SolveGreedyRIS(p, set, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ri.SolveGreedyRISContext(context.Background(), p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed=%d samples=%d arena=%v opts=%+v:\nbitset    %+v\nreference %+v", seed, samples, arena, opts, got, want)
					}
				}
			}
		}
	}
	if midBucket == 0 {
		t.Fatal("no budget stopped mid-bucket; the sweep lost its tie-heavy cases")
	}
}
