// Package rrset samples reverse-reachable (RR) sets of the fixed OPOAO
// realizations and selects protectors by lazy-greedy max coverage over
// them. It is the shared engine below internal/core, whose default greedy
// and SCBG run on it, and internal/sketch, which stores its output. SCBG
// brings its own pairs: the BBST of a bridge end is that end's RR set under
// DOAM's one deterministic realization, so the trees index and cover like
// any sampled RR sets. Following the randomized rumor-blocking algorithms
// of Tong et al. (arXiv:1701.02368), σ̂(S) over N realizations is
//
//	σ̂(S) = (baseline-safe pairs + pairs whose RR set intersects S) / N,
//
// a pure set-coverage count once the (realization, bridge end) pairs and
// their RR sets are sampled.
//
// # Sampler semantics
//
// Each realization is the fixed OPOAO realization of internal/diffusion:
// node u's activation target at step t is the pure function
// diffusion.FixedChoice(realSeed, u, t, deg), so activation timing is
// label-independent and one forward pass over the rumor seeds yields the
// rumor's unopposed arrival hop t_R(e) at every bridge end e. A pair
// (realization, e) with t_R(e) < 0 is baseline-safe: the rumor never
// reaches e within the horizon, so e survives under every protector set.
// Otherwise the pair's RR set holds every node u (rumor seeds excluded)
// from which a lone protector cascade seeded at u reaches e by hop t_R(e)
// (cascade P wins simultaneous arrivals), moving only along steps the
// realization actually schedules and never through a node the rumor
// claimed first. The forward pass writes each step's targets into a
// step-target table, and a level sweep over that table computes the RR
// sets of 64 ends at once, one bit per end (see Scratch.sweep).
//
// # Determinism contract
//
// Realization seeds come from Seeds, the same common-random-numbers stream
// the Monte-Carlo greedy draws; every RR set is a pure function of
// (realization seed, graph, rumors, ends, horizon); Draw writes each
// realization into its own slot; and NewIndex and Cover are pure functions
// of the pairs. Every output is bit-identical for every worker count.
package rrset

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// Pair is one (realization, bridge end) sample whose fate depends on the
// protector set: the rumor reaches the end at some hop, and Nodes lists
// every node whose lone protector cascade would save it.
type Pair struct {
	// Realization indexes the sampled realization.
	Realization int32 `json:"r"`
	// End indexes the bridge end in the sampler's ends.
	End int32 `json:"e"`
	// Nodes is the RR set, sorted ascending. It always contains the end
	// itself (seeding a protector on the end saves it at hop 0), so full
	// coverage is always achievable.
	Nodes []int32 `json:"nodes"`
}

// Seeds returns the first n realization seeds of the stream rng.New(seed)
// — the fixed (G_R, G_P) realizations of Lemma 4, one per sample.
func Seeds(seed uint64, n int) []uint64 {
	src := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Uint64()
	}
	return out
}

// Realization is the sampled output of one realization.
type Realization struct {
	// Pairs are its coverable pairs in end order.
	Pairs []Pair
	// Baseline counts its baseline-safe ends.
	Baseline int
	// Footprint is the sorted set of nodes whose adjacency its sampling
	// read with effect, or nil when the sampler collects none (see
	// Scratch.Sample).
	Footprint []int32
}

// Sampler is the read-only half of RR-set sampling, shared by every
// worker: the instance, the horizon, and how far the rumor can spread at
// all, which depends on the instance alone.
type Sampler struct {
	g          *graph.Graph
	rumors     []int32
	ends       []int32
	isEnd      []bool
	maxHops    int
	footprints bool
	// reach counts the nodes forward-reachable from the rumor seeds, and
	// reachEnds the bridge ends among them: once reach nodes are active no
	// step activates another, and once reachEnds ends have arrived every
	// t_R of the realization is known.
	reach     int32
	reachEnds int
}

// NewSampler prepares RR-set sampling of the rumor seeds' realizations on
// g up to maxHops, for the bridge ends ends. With footprints, every
// realization also records its footprint (see Scratch.Sample).
func NewSampler(g *graph.Graph, rumors, ends []int32, maxHops int, footprints bool) *Sampler {
	s := &Sampler{g: g, rumors: rumors, ends: ends, isEnd: make([]bool, g.NumNodes()),
		maxHops: maxHops, footprints: footprints}
	for _, e := range ends {
		s.isEnd[e] = true
	}
	reach := graph.Reachable(g, rumors, graph.Forward)
	s.reach = int32(len(reach))
	for _, v := range reach {
		if s.isEnd[v] {
			s.reachEnds++
		}
	}
	return s
}

// Draw samples the realizations listed in which (all of seeds when which
// is nil), realization r from seeds[r], on up to workers goroutines, each
// with its own Scratch. Slot k of the result belongs to the k-th listed
// realization, so the output is identical for every worker count.
//
// The context is checked before every realization; once it is done, each
// worker stops its stripe. Sampling itself cannot fail, so the returned
// error is the context's.
func (s *Sampler) Draw(ctx context.Context, seeds []uint64, which []int, workers int) ([]Realization, error) {
	n := len(seeds)
	if which != nil {
		n = len(which)
	}
	out := make([]Realization, n)
	var stopped atomic.Bool
	stripe(n, workers, func(w, stride int) {
		sc := s.NewScratch()
		for k := w; k < n; k += stride {
			r := k
			if which != nil {
				r = which[k]
			}
			if ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			out[k].Pairs, out[k].Baseline, out[k].Footprint = sc.Sample(seeds[r], int32(r))
		}
	})
	if stopped.Load() {
		return nil, ctx.Err() // a done context's error never reverts to nil
	}
	return out, nil
}

// stripe runs fn(w, stride) on min(workers, items) goroutines, inline
// when that is one: worker w takes items w, w+stride, ….
func stripe(items, workers int, fn func(w, stride int)) {
	workers = min(max(workers, 1), items)
	if workers <= 1 {
		if items > 0 {
			fn(0, 1)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, workers)
		}()
	}
	wg.Wait()
}

// Scratch is the per-worker reusable state of the sampler.
type Scratch struct {
	*Sampler
	n int32
	// arr[v] is the rumor's arrival hop at v in the realization in flight,
	// or -1 while it has not arrived (see forward for where the pass stops).
	arr []int32
	// table is the level-major step-target table: table[s-1][w] is the
	// node w targets at step s, or the sentinel n when w cannot relay
	// cascade P at step s: w has no out-edge, w is a rumor seed, or the
	// rumor claimed the target before step s. Rows are allocated on first
	// use and reused by later realizations.
	table [][]int32
	// cur and next are the double-buffered sweep levels, one bit per end
	// of the batch in flight. Index n is the sentinel's and stays zero.
	cur, next []uint64
	// order lists the coverable ends by t_R; rr[ei] is end ei's RR set;
	// bufs[i] collects the RR set of bit i of the batch in flight.
	order []int32
	rr    [][]int32
	bufs  [64][]int32
	// fp marks the footprint of the realization in flight, and scanned
	// the nodes whose in-rows it already holds.
	fp, scanned []uint64
}

// NewScratch allocates one worker's sampling state.
func (s *Sampler) NewScratch() *Scratch {
	n := s.g.NumNodes()
	sc := &Scratch{
		Sampler: s,
		n:       n,
		arr:     make([]int32, n),
		cur:     make([]uint64, n+1),
		next:    make([]uint64, n+1),
		rr:      make([][]int32, len(s.ends)),
	}
	if s.footprints {
		sc.fp = make([]uint64, n/64+1)
		sc.scanned = make([]uint64, n/64+1)
	}
	return sc
}

// Arrivals runs the forward pass of realization realSeed and returns the
// rumor's arrival hop at every node, -1 where it has not arrived. Without
// footprints the pass stops once every reachable end has arrived, so later
// nodes read -1. The slice is the scratch's own, valid until its next use.
func (sc *Scratch) Arrivals(realSeed uint64) []int32 {
	sc.forward(realSeed)
	return sc.arr
}

// Sample computes the pairs of one realization: a forward pass for the
// rumor clock that also fills the step-target table, then one level sweep
// per batch of up to 64 coverable ends. It returns the pairs, the number
// of baseline-safe ends and, when the sampler collects footprints, the
// sorted set of nodes whose adjacency this realization read with effect;
// otherwise nil.
//
// The footprint contract (what incremental repair's skip argument needs):
// re-sampling this realization on a graph whose mutations avoid every
// footprint node yields identical pairs. The set is (1) every activated
// node: only active nodes' out-rows drive activations, so if none changed
// the forward pass replays step for step; (2) every node with N_0 nonempty
// in some batch, i.e. every member of an RR set; and (3) every non-seed
// in-neighbour of a node x with N_1 nonempty, the relays that could carry
// P to x at a step of at least 1 (their out-degree, out-row and rumor
// arrival decide it). The table draws every node's steps, but only those
// relays' entries reach an RR set. Rumor seeds never relay, and their seed
// status is part of the instance, not the graph.
func (sc *Scratch) Sample(realSeed uint64, realIdx int32) ([]Pair, int, []int32) {
	ends, arr := sc.ends, sc.arr
	sc.forward(realSeed)
	order := sc.order[:0]
	for ei, e := range ends {
		if arr[e] >= 0 {
			order = append(order, int32(ei))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(arr[ends[a]], arr[ends[b]]) })
	for lo := 0; lo < len(order); lo += 64 {
		sc.sweep(order[lo:min(lo+64, len(order))])
	}
	sc.order = order
	var pairs []Pair
	for ei, e := range ends {
		if arr[e] >= 0 {
			pairs = append(pairs, Pair{Realization: realIdx, End: int32(ei), Nodes: sc.rr[ei]})
		}
	}
	return pairs, len(ends) - len(pairs), sc.footprint()
}

// forward runs the rumor clock of realization realSeed: at step s every
// node active before s targets FixedChoice(realSeed, w, s, deg), and the
// targets not yet active arrive at hop s. While some reachable end has not
// arrived, the step also writes table row s for every node, so each
// FixedChoice is drawn once for both directions. Without footprints the
// pass stops once every reachable end has arrived: later arrivals change
// no RR set. With them it runs on, since the footprint holds every
// activated node.
func (sc *Scratch) forward(realSeed uint64) {
	g, n, arr, isEnd := sc.g, sc.n, sc.arr, sc.isEnd
	for i := range arr {
		arr[i] = -1
	}
	active, ends := int32(0), 0
	for _, r := range sc.rumors {
		if arr[r] != 0 {
			arr[r] = 0
			active++
			if isEnd[r] {
				ends++
			}
		}
	}
	for s := int32(1); int(s) <= sc.maxHops && active < sc.reach; s++ {
		fill := ends < sc.reachEnds
		if !fill && !sc.footprints {
			return
		}
		var row []int32
		if fill {
			if len(sc.table) < int(s) {
				sc.table = append(sc.table, make([]int32, n))
			}
			row = sc.table[s-1]
		}
		for w := int32(0); w < n; w++ {
			out := g.Out(w)
			aw := uint32(arr[w]) // -1, not yet arrived, reads as 2^32-1
			if len(out) == 0 || !fill && aw >= uint32(s) {
				if fill {
					row[w] = n
				}
				continue
			}
			x := out[diffusion.FixedChoice(realSeed, w, s, int32(len(out)))]
			if aw < uint32(s) && arr[x] < 0 {
				arr[x] = s
				active++
				if isEnd[x] {
					ends++
				}
			}
			if fill {
				if aw == 0 || uint32(arr[x]) < uint32(s) {
					row[w] = n
				} else {
					row[w] = x
				}
			}
		}
	}
}

// sweep computes the RR sets of batch, at most 64 indices into the ends in
// ascending t_R, with bit i of every word standing for batch[i].
//
// need_e(w), the latest hop by which a lone protector cascade must hold w
// to save end e, obeys need_e(e) = t_R(e) and otherwise need_e(w) = max,
// over the steps s ≤ need_e(x) at which w targets x, of min(s-1, t_R(w)).
// With N_c(w) the batch ends e with need_e(w) ≥ c, that is a sweep of the
// levels c = T_b … 0, T_b the batch's largest t_R: U(w) accumulates
// N_{c+1}(tgt_{c+1}(w)) for every non-seed w, e joins U(e) once c ≤ t_R(e),
// and N_c(w) = U(w) unless the rumor claimed w before hop c. The table's
// sentinels fold that cap into the read, so a level is one pass of
// next[w] = cur[w] | cur[tgt(w)] over the nodes. The two buffers keep each
// level reading only the level above: a relay advances one step per level.
// RR(e) is {u : e ∈ N_0(u)}.
func (sc *Scratch) sweep(batch []int32) {
	ends, arr, n := sc.ends, sc.arr, int(sc.n)
	cur, next := sc.cur, sc.next
	k := len(batch) - 1
	for c := arr[ends[batch[k]]]; ; c-- {
		for ; k >= 0 && arr[ends[batch[k]]] == c; k-- {
			cur[ends[batch[k]]] |= 1 << uint(k)
		}
		if c == 0 {
			break
		}
		if c == 1 && sc.footprints {
			sc.scanRelays(cur)
		}
		for w, x := range sc.table[c-1] {
			next[w] = cur[w] | cur[x]
		}
		cur, next = next, cur
	}
	sc.cur, sc.next = cur, next

	// cur is N_0. One pass appends every node to the buffers of the ends
	// whose sets hold it, ascending, and clears cur; the sets are then
	// copied into one exact-size backing.
	bufs := &sc.bufs
	for u, m := range cur[:n] {
		if m == 0 {
			continue
		}
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			bufs[i] = append(bufs[i], int32(u))
		}
		cur[u] = 0
		if sc.footprints {
			sc.fp[u>>6] |= 1 << uint(u&63)
		}
	}
	total := 0
	for _, buf := range bufs[:len(batch)] {
		total += len(buf)
	}
	backing := make([]int32, total)
	off := 0
	for i, ei := range batch {
		end := off + copy(backing[off:], bufs[i])
		sc.rr[ei] = backing[off:end:end]
		off = end
		bufs[i] = bufs[i][:0]
	}
}

// scanRelays adds to the footprint the non-seed in-neighbours of every
// node x with N_1(x) nonempty; u1 is the batch's level-1 U, and N_1(x) is
// U(x) unless x is a rumor seed.
func (sc *Scratch) scanRelays(u1 []uint64) {
	g, arr := sc.g, sc.arr
	for x, m := range u1[:sc.n] {
		if m == 0 || arr[x] == 0 || sc.scanned[x>>6]&(1<<uint(x&63)) != 0 {
			continue
		}
		sc.scanned[x>>6] |= 1 << uint(x&63)
		for _, w := range g.In(int32(x)) {
			if arr[w] != 0 {
				sc.fp[w>>6] |= 1 << uint(w&63)
			}
		}
	}
}

// footprint adds the activated nodes to the realization's footprint and
// returns it sorted, resetting the bitmaps; nil without footprints.
func (sc *Scratch) footprint() []int32 {
	if !sc.footprints {
		return nil
	}
	for u, a := range sc.arr {
		if a >= 0 {
			sc.fp[u>>6] |= 1 << uint(u&63)
		}
	}
	count := 0
	for _, m := range sc.fp {
		count += bits.OnesCount64(m)
	}
	out := make([]int32, 0, count)
	for wi, m := range sc.fp {
		for ; m != 0; m &= m - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(m)))
		}
	}
	clear(sc.fp)
	clear(sc.scanned)
	return out
}
