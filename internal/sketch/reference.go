package sketch

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"lcrb/internal/core"
)

// ReferenceIndex is the sketch engine's retired coverage machinery — the
// map[int32][]int32 node → pair inversion with map[int32]bool probe sets
// and per-element []bool recounts — preserved verbatim as the
// differential-testing oracle for the bitset kernels and as the "before"
// leg of the perf benchmark. It answers every query the live index
// answers; the property tests assert the two agree pair for pair, and the
// RIS solvers select identical protector sequences.
type ReferenceIndex struct {
	set    *Set
	byNode map[int32][]int32
}

// NewReferenceIndex builds the map-based inversion of set's pairs.
func NewReferenceIndex(set *Set) *ReferenceIndex {
	ri := &ReferenceIndex{set: set, byNode: make(map[int32][]int32)}
	for pi, pair := range set.Pairs {
		for _, u := range pair.Nodes {
			ri.byNode[u] = append(ri.byNode[u], int32(pi))
		}
	}
	return ri
}

// Sigma is the map-based σ̂(S), the oracle for Set.Sigma.
func (ri *ReferenceIndex) Sigma(protectors []int32) float64 {
	if ri.set.Samples <= 0 {
		return 0
	}
	return float64(ri.set.BaselinePairs+ri.CoveredPairs(protectors)) / float64(ri.set.Samples)
}

// CoveredPairs counts the pairs whose RR set intersects S through a
// map probe set, the oracle for Set.coveredPairs.
func (ri *ReferenceIndex) CoveredPairs(protectors []int32) int {
	covered := make(map[int32]bool)
	for _, u := range protectors {
		for _, pi := range ri.byNode[u] {
			covered[pi] = true
		}
	}
	return len(covered)
}

// Candidates returns the sorted candidate nodes, the oracle for
// Set.Candidates.
func (ri *ReferenceIndex) Candidates() []int32 {
	out := make([]int32, 0, len(ri.byNode))
	for u := range ri.byNode {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Gain counts node u's pairs absent from covered by probing a []bool, the
// oracle for the lazy-greedy recount kernel.
func (ri *ReferenceIndex) Gain(u int32, covered []bool) int {
	gain := 0
	for _, pi := range ri.byNode[u] {
		if !covered[pi] {
			gain++
		}
	}
	return gain
}

// SolveGreedyRISContext is the retired map/bool-slice RIS selector, the
// oracle for the live solver of the same name: same validation, same heap
// discipline, same tie-breaks, so on any sketch the two must select
// bit-identical protector sequences with equal gains and evaluation
// counts.
func (ri *ReferenceIndex) SolveGreedyRISContext(ctx context.Context, p *core.Problem, opts SolveOptions) (*core.GreedyResult, error) {
	set := ri.set
	if p == nil {
		return nil, fmt.Errorf("sketch: solve: nil problem")
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
	required := p.RequiredEnds(opts.Alpha)
	targetPairs := required*set.Samples - set.BaselinePairs

	pq := make(coverQueue, 0, len(ri.byNode))
	for _, u := range ri.Candidates() {
		pq = append(pq, coverEntry{key: coverKey(int32(len(ri.byNode[u])), u), round: 0})
		res.Evaluations++
	}
	heap.Init(&pq)

	covered := make([]bool, len(set.Pairs))
	coveredCount := 0
	round := int32(0)
	var selected []int32
	var loopErr error
	for coveredCount < targetPairs && len(selected) < maxProtectors && pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			loopErr = err
			break
		}
		top := heap.Pop(&pq).(coverEntry)
		if top.round != round {
			top.key = coverKey(int32(ri.Gain(top.node(), covered)), top.node())
			top.round = round
			res.Evaluations++
			heap.Push(&pq, top)
			continue
		}
		if top.gain() <= 0 {
			break
		}
		for _, pi := range ri.byNode[top.node()] {
			covered[pi] = true
		}
		coveredCount += int(top.gain())
		selected = append(selected, top.node())
		res.Gains = append(res.Gains, float64(top.gain())/n)
		round++
	}

	res.Protectors = selected
	if res.Protectors == nil {
		res.Protectors = []int32{}
	}
	res.ProtectedEnds = float64(set.BaselinePairs+coveredCount) / n
	res.Achieved = coveredCount >= targetPairs
	if loopErr != nil {
		res.Partial = true
		return res, fmt.Errorf("sketch: solve: %w", loopErr)
	}
	return res, nil
}

// coverEntry is a heap entry of the reference selector. The candidate's
// gain (marginal pair coverage as of round) and node id are packed into one
// uint64 comparison key — gain in the high word, complemented node in the
// low word — so the heap's (gain desc, node asc) order is a single integer
// compare. Gain fits 32 bits because it is a pair count bounded by
// numPairs, itself an int32 index domain.
type coverEntry struct {
	key   uint64
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

// coverQueue is the reference selector's container/heap max-heap on
// gain, ties to the smaller node id. The live selector's bucketQueue pops
// the same sequence.
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
