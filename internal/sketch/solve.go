package sketch

import (
	"context"
	"fmt"
	"slices"

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
// selected, or no candidate has positive marginal coverage. It pops
// candidates in (gain desc, node asc) order from a bucketQueue, so it
// selects the same sequence with the same evaluation count as reference.go's
// container/heap selector. The returned error is the context's; the
// best-so-far state accompanies it.
func greedyCover(ctx context.Context, set *Set, targetPairs, maxProtectors int) (coverState, error) {
	var st coverState
	ix := set.index

	// Round 0: every candidate's initial coverage is its RR-pair count.
	q := newBucketQueue(ix)
	st.evaluations = len(ix.nodes)

	covered := NewBitset(ix.numPairs)
	round := int32(0)
	for st.covered < targetPairs && len(st.selected) < maxProtectors {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		r, g, ok := q.peek()
		if !ok {
			break
		}
		if q.round[r] != round {
			// Stale upper bound: recount the maximum against current
			// coverage — one AND-NOT popcount sweep of its pair row. A
			// lower gain moves it down to that bucket; an equal one leaves
			// it at the head, fresh, to be selected next.
			q.round[r] = round
			st.evaluations++
			if fresh := ix.gain(r, covered); fresh < g {
				q.pop()
				q.push(r, fresh)
			}
			continue
		}
		if g <= 0 {
			break // nothing left to cover with any remaining candidate
		}
		q.pop()
		ix.commit(r, covered)
		st.covered += g
		st.selected = append(st.selected, ix.nodes[r])
		st.gains = append(st.gains, g)
		round++
	}
	return st, nil
}

// bucketQueue is the lazy greedy's priority queue: a monotone bucket
// queue of index rows keyed by last-evaluated gain, popping in (gain desc,
// node asc) order. Rows ascend by node, so node order is row order.
//
// Three facts make a bucket scan reproduce a max-heap's pop sequence.
// Keys never increase: coverage is submodular, so a recount never beats
// the gain it replaces. Every reinsertion therefore lands in a bucket
// below the one being consumed, and the consumed bucket only ever takes
// back its own head, in place, when a recount leaves the gain unchanged.
// So when the scan reaches a bucket it already holds every row it will
// ever hold, and sorting it by row then yields the heap's order, stale and
// fresh keys alike — selections and evaluation counts match exactly,
// including the recount of a zero-gain head just before the loop breaks.
// A push is O(1) and a bucket is sorted once, where the heap sifted on
// every recount.
type bucketQueue struct {
	// first[g] heads the linked list of rows waiting in bucket g, -1 when
	// empty; next[r] is the row after r in its list.
	first, next []int32
	// round[r] is the selection round of row r's last evaluation.
	round []int32
	// cur holds bucket top's rows ascending, consumed up to at; every
	// bucket above top is empty.
	cur []int32
	at  int
	top int
}

// newBucketQueue queues every row of ix under its RR-pair count.
func newBucketQueue(ix *pairIndex) *bucketQueue {
	n := len(ix.nodes)
	maxGain := 0
	for r := 0; r < n; r++ {
		maxGain = max(maxGain, int(ix.off[r+1]-ix.off[r]))
	}
	q := &bucketQueue{
		first: make([]int32, maxGain+1),
		next:  make([]int32, n),
		round: make([]int32, n),
		top:   maxGain + 1,
	}
	for g := range q.first {
		q.first[g] = -1
	}
	// Lists are LIFO: pushing rows in descending order leaves each
	// ascending, so the first sort of every bucket is a linear pass.
	for r := n - 1; r >= 0; r-- {
		q.push(int32(r), int(ix.off[r+1]-ix.off[r]))
	}
	return q
}

// push queues row r under gain g, which must lie below the bucket being
// consumed.
func (q *bucketQueue) push(r int32, g int) {
	q.next[r] = q.first[g]
	q.first[g] = r
}

// peek returns the maximum — the smallest row of the highest non-empty
// bucket — and its gain, moving the scan down to that bucket first; ok is
// false once the queue is empty.
func (q *bucketQueue) peek() (r int32, g int, ok bool) {
	for q.at == len(q.cur) {
		if q.top == 0 {
			return 0, 0, false
		}
		q.top--
		q.cur, q.at = q.cur[:0], 0
		for r := q.first[q.top]; r >= 0; r = q.next[r] {
			q.cur = append(q.cur, r)
		}
		q.first[q.top] = -1
		slices.Sort(q.cur)
	}
	return q.cur[q.at], q.top, true
}

// pop removes the maximum peek returned.
func (q *bucketQueue) pop() { q.at++ }
