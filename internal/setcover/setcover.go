// Package setcover implements greedy set cover — the engine behind the
// paper's SCBG algorithm (algorithm 2) — plus a brute-force exact solver
// used to verify the greedy's H_n approximation ratio on small instances.
package setcover

import (
	"context"
	"fmt"
	"math"
)

// Instance is a set-cover instance: a universe of elements 0..Universe-1
// and a family of subsets given as element indices.
type Instance struct {
	// Universe is the number of elements to cover.
	Universe int
	// Sets lists the family; Sets[i] holds the elements of set i. Indices
	// outside [0, Universe) are rejected by the solvers.
	Sets [][]int32
	// Costs optionally assigns a positive cost per set; nil means unit
	// costs (minimize the number of sets).
	Costs []float64
}

// validate checks instance consistency.
func (in Instance) validate() error {
	if in.Universe < 0 {
		return fmt.Errorf("setcover: negative universe %d", in.Universe)
	}
	if in.Costs != nil && len(in.Costs) != len(in.Sets) {
		return fmt.Errorf("setcover: %d costs for %d sets", len(in.Costs), len(in.Sets))
	}
	for i, set := range in.Sets {
		for _, e := range set {
			if e < 0 || int(e) >= in.Universe {
				return fmt.Errorf("setcover: set %d contains element %d outside universe [0,%d)", i, e, in.Universe)
			}
		}
		if in.Costs != nil && in.Costs[i] <= 0 {
			return fmt.Errorf("setcover: set %d has non-positive cost %v", i, in.Costs[i])
		}
	}
	return nil
}

// ErrUncoverable is returned (wrapped) when some element appears in no set.
var ErrUncoverable = fmt.Errorf("setcover: universe not coverable")

// Solution is the output of a solver.
type Solution struct {
	// Chosen holds the indices of the selected sets, in selection order.
	Chosen []int32
	// Cost is the total cost (set count under unit costs).
	Cost float64
	// Covered is the number of distinct elements covered.
	Covered int
}

// Greedy solves the instance with the classical greedy algorithm: keep
// picking the set with the best (newly covered elements / cost) ratio until
// everything is covered. Ties break towards the lower set index, so runs
// are deterministic. Achieves the H_n ≈ ln n approximation guarantee, which
// is optimal unless P = NP (Feige 1998, the paper's Theorem 2/Corollary 1).
func Greedy(in Instance) (*Solution, error) {
	return GreedyPartial(in, in.Universe)
}

// GreedyPartial is Greedy stopped as soon as at least `need` elements are
// covered (need is clamped to the universe size). This is the α-fraction
// variant used for partial protection targets.
func GreedyPartial(in Instance, need int) (*Solution, error) {
	return GreedyPartialContext(context.Background(), in, need)
}

// GreedyPartialContext is GreedyPartial with cooperative cancellation,
// checked once per selection round. On cancellation the partial cover built
// so far is returned alongside the wrapped context error, mirroring the
// ErrUncoverable contract.
//
// The selection is lazy (CELF-style): a max-heap holds every set that may
// still cover something, keyed on its last-known gain/cost ratio. Gains
// only shrink as elements get covered, so a stale key is an upper bound;
// the top set is recounted, and it is picked once its recount confirms its
// key, since no other set can then beat it. Equal ratios order by set
// index, so the lowest index wins a tie.
func GreedyPartialContext(ctx context.Context, in Instance, need int) (*Solution, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if need > in.Universe {
		need = in.Universe
	}
	if need < 0 {
		need = 0
	}
	covered := make([]bool, in.Universe)
	sol := &Solution{}
	cost := func(i int32) float64 {
		if in.Costs == nil {
			return 1
		}
		return in.Costs[i]
	}
	gains := &gainCounter{stamp: make([]uint32, in.Universe)}
	h := make(ratioHeap, 0, len(in.Sets))
	for i, set := range in.Sets {
		if gain := gains.uncovered(set, covered); gain > 0 {
			h = append(h, heapEntry{ratio: float64(gain) / cost(int32(i)), gain: gain, set: int32(i)})
		}
	}
	h.init()

	for sol.Covered < need {
		if err := ctx.Err(); err != nil {
			return sol, fmt.Errorf("setcover: canceled after covering %d of %d elements: %w", sol.Covered, need, err)
		}
		best := int32(-1)
		for len(h) > 0 {
			top := h[0].set
			gain := gains.uncovered(in.Sets[top], covered)
			if gain == h[0].gain {
				best = top
				h.pop()
				break
			}
			if gain == 0 {
				h.pop()
				continue
			}
			h[0].gain, h[0].ratio = gain, float64(gain)/cost(top)
			h.down(0)
		}
		if best < 0 {
			// Return the partial cover alongside the error so callers can
			// still use what was achievable.
			return sol, fmt.Errorf("%w: %d of %d elements required, %d covered",
				ErrUncoverable, need, in.Universe, sol.Covered)
		}
		for _, e := range in.Sets[best] {
			if !covered[e] {
				covered[e] = true
				sol.Covered++
			}
		}
		sol.Chosen = append(sol.Chosen, best)
		sol.Cost += cost(best)
	}
	return sol, nil
}

// gainCounter counts a set's distinct uncovered elements. stamp[e] ==
// epoch marks e as already counted by the current call, so duplicate
// elements count once without clearing anything between calls.
type gainCounter struct {
	stamp []uint32
	epoch uint32
}

// uncovered returns the number of distinct elements of set not yet covered.
func (c *gainCounter) uncovered(set []int32, covered []bool) int32 {
	c.epoch++
	if c.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(c.stamp)
		c.epoch = 1
	}
	n := int32(0)
	for _, e := range set {
		if !covered[e] && c.stamp[e] != c.epoch {
			c.stamp[e] = c.epoch
			n++
		}
	}
	return n
}

// heapEntry is one candidate set in the lazy selection heap.
type heapEntry struct {
	ratio float64 // gain / cost at the last recount
	gain  int32   // distinct uncovered elements at the last recount
	set   int32
}

// ratioHeap is a binary max-heap on (ratio descending, set ascending).
type ratioHeap []heapEntry

func (h ratioHeap) before(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].set < h[j].set
}

func (h ratioHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h ratioHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes the top entry.
func (h *ratioHeap) pop() {
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.down(0)
}

// Exact solves the instance optimally by exhaustive search over set
// subsets. Exponential in len(Sets); intended for tests with at most ~20
// sets (it returns an error beyond that).
func Exact(in Instance) (*Solution, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Sets) > 20 {
		return nil, fmt.Errorf("setcover: Exact limited to 20 sets, got %d", len(in.Sets))
	}
	if in.Universe > 63 {
		return nil, fmt.Errorf("setcover: Exact limited to 63 elements, got %d", in.Universe)
	}
	full := uint64(1)<<uint(in.Universe) - 1
	masks := make([]uint64, len(in.Sets))
	for i, set := range in.Sets {
		for _, e := range set {
			masks[i] |= 1 << uint(e)
		}
	}
	cost := func(i int) float64 {
		if in.Costs == nil {
			return 1
		}
		return in.Costs[i]
	}
	bestCost := math.MaxFloat64
	var bestPick uint32
	found := false
	for pick := uint32(0); pick < 1<<uint(len(in.Sets)); pick++ {
		var m uint64
		var c float64
		for i := range masks {
			if pick&(1<<uint(i)) != 0 {
				m |= masks[i]
				c += cost(i)
			}
		}
		if m == full && c < bestCost {
			bestCost, bestPick, found = c, pick, true
		}
	}
	if !found {
		return nil, ErrUncoverable
	}
	sol := &Solution{Cost: bestCost, Covered: in.Universe}
	for i := 0; i < len(in.Sets); i++ {
		if bestPick&(1<<uint(i)) != 0 {
			sol.Chosen = append(sol.Chosen, int32(i))
		}
	}
	if in.Universe == 0 {
		sol.Cost = 0
	}
	return sol, nil
}

// HarmonicBound returns H_n = 1 + 1/2 + ... + 1/n, the greedy algorithm's
// approximation guarantee for an n-element universe.
func HarmonicBound(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
