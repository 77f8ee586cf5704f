package rrset

import (
	"context"
	"slices"
)

// CoverOptions tunes Cover.
type CoverOptions struct {
	// Target is the number of pairs to cover: the selection stops once it
	// is reached.
	Target int
	// MaxSelect caps the number of selected rows.
	MaxSelect int
	// Plain recounts every remaining row in every round, as algorithm 1
	// is written, instead of recounting lazily. The selection is
	// identical; only Evaluations grows.
	Plain bool
	// OnSelect, when non-nil, runs after every selection with the cover so
	// far. Its slices are the cover's own: it must not retain or modify
	// them.
	OnSelect func(c Cover)
}

// Cover is the outcome of a greedy max-coverage run: the selected nodes in
// order, their integer pair gains, the total pairs covered, and the number
// of row counts.
type Cover struct {
	Selected    []int32
	Gains       []int
	Covered     int
	Evaluations int
}

// Cover runs greedy max coverage over the index until opts.Target pairs
// are covered, opts.MaxSelect rows are selected, or no candidate has
// positive marginal coverage. Every round selects the candidate row with
// the largest marginal coverage, ties to the smaller node id.
//
// Each candidate's first count is its row length, so it costs no sweep but
// is charged as an evaluation. After that the lazy loop pops candidates in
// (gain desc, node asc) order from a bucketQueue and recounts a stale head
// against the current coverage: pair coverage is exactly submodular, so a
// previous count bounds the current one and the lazy loop selects the
// same sequence as the plain one.
//
// How a recount is served depends on the index (see gains): with the
// arena it is an AND-NOT popcount sweep of the row, without it a read of
// the row's exact gain, which every commit keeps current by decrement.
// Both return the same count, so the selection, gains and evaluations do
// not depend on the kernel.
//
// The context is checked before every recount and selection. On
// cancellation the cover so far is returned with the context's error.
func (ix *Index) Cover(ctx context.Context, opts CoverOptions) (Cover, error) {
	c := Cover{Evaluations: len(ix.Nodes)}
	k := newGains(ix)
	if opts.Plain {
		return ix.coverPlain(ctx, opts, c, k)
	}

	q := newBucketQueue(ix)
	round := int32(0)
	for c.Covered < opts.Target && len(c.Selected) < opts.MaxSelect {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		r, g, ok := q.peek()
		if !ok {
			break
		}
		if q.round[r] != round {
			// Stale upper bound: recount the maximum against current
			// coverage. A lower gain moves it down to that bucket; an
			// equal one leaves it at the head, fresh, to be selected next.
			q.round[r] = round
			c.Evaluations++
			if fresh := k.count(r); fresh < g {
				q.pop()
				q.push(r, fresh)
			}
			continue
		}
		if g <= 0 {
			break // nothing left to cover with any remaining candidate
		}
		q.pop()
		c.commit(k, r, g, opts.OnSelect)
		round++
	}
	return c, nil
}

// coverPlain is Cover's plain loop: every round recounts every remaining
// row, round 0 reusing the first counts, and selects the first maximum in
// row order.
func (ix *Index) coverPlain(ctx context.Context, opts CoverOptions, c Cover, k *gains) (Cover, error) {
	rows := make([]int32, len(ix.Nodes))
	for r := range rows {
		rows[r] = int32(r)
	}
	for round := 0; c.Covered < opts.Target && len(c.Selected) < opts.MaxSelect && len(rows) > 0; round++ {
		best, bestGain := -1, 0
		for i, r := range rows {
			g := int(ix.Off[r+1] - ix.Off[r])
			if round > 0 {
				if err := ctx.Err(); err != nil {
					return c, err
				}
				c.Evaluations++
				g = k.count(r)
			}
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			break // nothing left to cover with any remaining candidate
		}
		if err := ctx.Err(); err != nil {
			return c, err
		}
		c.commit(k, rows[best], bestGain, opts.OnSelect)
		rows = slices.Delete(rows, best, best+1)
	}
	return c, nil
}

// commit selects row r at gain g.
func (c *Cover) commit(k *gains, r int32, g int, onSelect func(Cover)) {
	k.commit(r)
	c.Covered += g
	c.Selected = append(c.Selected, k.ix.Nodes[r])
	c.Gains = append(c.Gains, g)
	if onSelect != nil {
		onSelect(*c)
	}
}

// gains serves one Cover call's row counts against its own coverage, so
// solves sharing an index stay independent. With the arena a count is an
// AND-NOT popcount sweep of the row (Index.Gain). Without it, exact
// holds every row's current gain: committing a row walks its pair list
// and, for each pair it newly covers, decrements the gain of every row in
// that pair's RR set, so a count is one read. A sparse index covers each
// pair once and touches each of its RR entries once, where a sweep would
// reread whole rows of mostly zero words on every recount.
type gains struct {
	ix      *Index
	covered Bitset
	// exact[r] is row r's marginal gain, or nil when the arena serves
	// counts.
	exact []int32
}

// newGains starts a cover with nothing covered.
func newGains(ix *Index) *gains {
	k := &gains{ix: ix, covered: NewBitset(ix.NumPairs)}
	if ix.Arena == nil {
		k.exact = make([]int32, len(ix.Nodes))
		for r := range k.exact {
			k.exact[r] = ix.Off[r+1] - ix.Off[r]
		}
	}
	return k
}

// count returns row r's marginal gain.
func (k *gains) count(r int32) int {
	if k.exact == nil {
		return k.ix.Gain(r, k.covered)
	}
	return int(k.exact[r])
}

// commit marks row r's pairs covered.
func (k *gains) commit(r int32) {
	if k.exact == nil {
		k.ix.Commit(r, k.covered)
		return
	}
	for _, pi := range k.ix.RowList(r) {
		if k.covered.Test(pi) {
			continue
		}
		k.covered.Set(pi)
		for _, u := range k.ix.Source[pi].Nodes {
			k.exact[k.ix.RowOf[u]]--
		}
	}
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
func newBucketQueue(ix *Index) *bucketQueue {
	n := len(ix.Nodes)
	maxGain := 0
	for r := 0; r < n; r++ {
		maxGain = max(maxGain, int(ix.Off[r+1]-ix.Off[r]))
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
		q.push(int32(r), int(ix.Off[r+1]-ix.Off[r]))
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
