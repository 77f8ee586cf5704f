package sketch

import (
	"context"
	"fmt"

	"lcrb/internal/core"
)

// SolveOptions tunes the RIS selector.
type SolveOptions struct {
	// Alpha is the fraction of bridge ends to protect, in (0, 1).
	// Defaults to 0.9, matching core.GreedyOptions.
	Alpha float64
	// MaxProtectors caps the seed-set size. 0 means |B|.
	MaxProtectors int
}

// SolveGreedyRIS selects protectors by lazy-greedy max coverage over the
// sketch; see SolveGreedyRISContext.
func SolveGreedyRIS(p *core.Problem, set *Set, opts SolveOptions) (*core.GreedyResult, error) {
	return SolveGreedyRISContext(context.Background(), p, set, opts)
}

// SolveGreedyRISContext is the sketch-based counterpart of
// core.GreedyContext: it greedily covers (realization, end) pairs until
// σ̂_RIS(S) reaches the α·|B| target, returning the same GreedyResult
// shape with sketch-based σ̂ — and running zero diffusion simulations.
// Coverage counting runs on the bitset kernels of bitset.go: every
// marginal-gain recount is one word-parallel AND-NOT popcount sweep over
// the candidate's CSR pair row, with zero allocations per query.
//
// Coverage guarantee: pair coverage is an exactly submodular set function
// of S, so the lazy evaluation (a candidate's previous marginal coverage
// upper-bounds its current one) selects the identical sequence to full
// greedy, and after k selections the covered-pair count is within a
// (1 − 1/e) factor of the best achievable with any k seeds (Nemhauser,
// Wolsey & Fisher 1978). Because every coverable pair's RR set contains
// its own end, some candidate always has positive marginal coverage while
// uncovered pairs remain: run with the default protector budget of |B|,
// the selector either reaches the α target exactly or exhausts the budget
// with the (1 − 1/e)-approximate cover — it never stalls early.
//
// The sketch must belong to p: Validate is checked first and a stale
// sketch is rejected with an error wrapping ErrStale, never silently
// served. On cancellation the best-so-far prefix is returned with Partial
// set, following core.GreedyContext's partial-result contract.
func SolveGreedyRISContext(ctx context.Context, p *core.Problem, set *Set, opts SolveOptions) (*core.GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: solve: nil problem")
	}
	if set == nil {
		return nil, fmt.Errorf("sketch: solve: nil sketch set")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.9
	}
	if err := core.ValidateAlphaOpen(opts.Alpha); err != nil {
		return nil, fmt.Errorf("sketch: solve: %w", err)
	}
	if err := set.Validate(p); err != nil {
		return nil, fmt.Errorf("sketch: solve: %w", err)
	}
	maxProtectors := opts.MaxProtectors
	if maxProtectors <= 0 {
		maxProtectors = len(p.Ends)
	}

	n := float64(set.Samples)
	res := &core.GreedyResult{
		BaselineEnds: float64(set.BaselinePairs) / n,
	}
	// The α target in pair units: σ̂(S) ≥ RequiredEnds(α) ⇔ covered
	// pairs ≥ required·N − baseline pairs. Everything is an integer, so
	// the comparison is exact — no float tolerance at the stopping rule.
	required := p.RequiredEnds(opts.Alpha)
	targetPairs := required*set.Samples - set.BaselinePairs

	st, loopErr := greedyCover(ctx, set, targetPairs, maxProtectors)
	res.Evaluations = st.evaluations
	res.Protectors = st.selected
	if res.Protectors == nil {
		res.Protectors = []int32{}
	}
	for _, g := range st.gains {
		res.Gains = append(res.Gains, float64(g)/n)
	}
	res.ProtectedEnds = float64(set.BaselinePairs+st.covered) / n
	res.Achieved = st.covered >= targetPairs
	if loopErr != nil {
		res.Partial = true
		return res, fmt.Errorf("sketch: solve: %w", loopErr)
	}
	return res, nil
}

// coverState is the outcome of one lazy-greedy max-coverage run over a
// sketch: the selected nodes in order, their integer pair gains, the total
// pairs covered, and the marginal-coverage evaluation count.
type coverState struct {
	selected    []int32
	gains       []int
	covered     int
	evaluations int
}

// greedyCover runs the lazy-greedy max-coverage loop on the set's CSR
// index until targetPairs pairs are covered, maxProtectors nodes are
// selected, or no candidate has positive marginal coverage. The returned
// error is the context's; the best-so-far state accompanies it.
func greedyCover(ctx context.Context, set *Set, targetPairs, maxProtectors int) (coverState, error) {
	var st coverState
	ix := set.index

	// Round 0: every candidate's initial coverage is its RR-pair count.
	pq := make(coverQueue, 0, len(ix.nodes))
	for r, u := range ix.nodes {
		pq = append(pq, coverEntry{key: coverKey(int32(len(ix.rowList(int32(r)))), u), row: int32(r), round: 0})
		st.evaluations++
	}
	pq.initQueue()

	covered := NewBitset(ix.numPairs)
	round := int32(0)
	for st.covered < targetPairs && len(st.selected) < maxProtectors && pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if top := &pq[0]; top.round != round {
			// Stale upper bound: recount the maximum against current
			// coverage — one AND-NOT popcount sweep of the candidate's pair
			// row — in place at the heap root, then restore the invariant
			// with a single siftDown. Equivalent to the textbook CELF
			// pop-recount-push (the same unique (gain, node) maximum is
			// recounted, and reheapifying surfaces the same next maximum)
			// at half the heap moves; usually the recounted top stays on
			// top and the siftDown is O(1).
			top.key = coverKey(int32(ix.gain(top.row, covered)), top.node())
			top.round = round
			st.evaluations++
			pq.siftDown(0)
			continue
		}
		top := pq.popEntry()
		if top.gain() <= 0 {
			break // nothing left to cover with any remaining candidate
		}
		ix.commit(top.row, covered)
		st.covered += int(top.gain())
		st.selected = append(st.selected, top.node())
		st.gains = append(st.gains, int(top.gain()))
		round++
	}
	return st, nil
}

// coverEntry is a lazy-greedy priority-queue entry. The candidate's gain
// (marginal pair coverage as of round) and node id are packed into one
// uint64 comparison key — gain in the high word, complemented node in the
// low word — so the heap's (gain desc, node asc) order is a single integer
// compare and an entry is 16 bytes. Gain fits 32 bits because it is a pair
// count bounded by numPairs, itself an int32 index domain.
type coverEntry struct {
	key   uint64
	row   int32
	round int32
}

// coverKey packs (gain desc, node asc) into one max-ordered uint64:
// key(a) > key(b) ⇔ a precedes b. Complementing the node makes the
// smaller id win gain ties under the single > compare.
func coverKey(gain, node int32) uint64 {
	return uint64(uint32(gain))<<32 | uint64(^uint32(node))
}

func (e coverEntry) gain() int32 { return int32(uint32(e.key >> 32)) }
func (e coverEntry) node() int32 { return int32(^uint32(e.key)) }

// coverQueue is a max-heap on gain, ties to the smaller node id for
// determinism. The live solver drives it through the concrete
// initQueue/popEntry/siftDown below — container/heap's interface
// indirection boxes every Pop and blocks inlining of the comparisons,
// which is measurable at this loop's recount rates. The heap.Interface
// methods remain for reference.go, the retired selector. Both disciplines
// pop the same unique (gain, node) maximum at every step, so selections
// and evaluation counts cannot differ between them.
type coverQueue []coverEntry

func (q coverQueue) Len() int           { return len(q) }
func (q coverQueue) Less(i, j int) bool { return q[i].key > q[j].key }
func (q coverQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *coverQueue) Push(x interface{}) {
	*q = append(*q, x.(coverEntry))
}
func (q *coverQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// The concrete queue is a 4-ary heap: sifting visits half the levels of a
// binary heap, and the four-child max scan runs branch-predictably over
// one cache line of keys. Arity changes which array slots hold which
// entries, never which entry is the maximum — the pop sequence, and with
// it selections and evaluation counts, is identical to any other max-heap
// discipline including reference.go's container/heap.

// initQueue establishes the heap invariant in O(n), like heap.Init.
// (n-2)/4 is the last internal node of the 4-ary heap.
func (q coverQueue) initQueue() {
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// popEntry removes and returns the maximum entry, like heap.Pop.
func (q *coverQueue) popEntry() coverEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	if n > 1 {
		(*q).siftDown(0)
	}
	return top
}

// siftDown restores the invariant below i, shifting the largest of the
// four children up into the hole instead of swapping at every level — one
// 16-byte move per level plus a single write at the final resting place.
func (q coverQueue) siftDown(i int) {
	n := len(q)
	e := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		best, bestKey := first, q[first].key
		for c := first + 1; c < last; c++ {
			if k := q[c].key; k > bestKey {
				best, bestKey = c, k
			}
		}
		if bestKey <= e.key {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = e
}
