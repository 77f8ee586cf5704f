package sketch

import (
	"math/bits"
	"slices"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
)

// The retired RR-set sampler, kept as the differential oracle for the
// level sweep: one forward arrival pass over the active set, a per-in-edge
// step-mask schedule, and one backward bucket search per coverable end.
// The golden digests hold for it and for the sweep alike.

// refArrivals is the forward arrival pass of the fixed OPOAO realization
// realSeed: entry v is the hop at which v first becomes active when seeds
// start active at hop 0, or -1 when v is not reached within maxHops.
func refArrivals(g *graph.Graph, seeds []int32, realSeed uint64, maxHops int) []int32 {
	arr := make([]int32, g.NumNodes())
	for i := range arr {
		arr[i] = -1
	}
	var active []int32
	for _, s := range seeds {
		if arr[s] != 0 {
			arr[s] = 0
			active = append(active, s)
		}
	}
	potential := int32(len(graph.Reachable(g, append([]int32(nil), seeds...), graph.Forward)))
	var newlyActive []int32
	for hop := 0; hop < maxHops && int32(len(active)) < potential; hop++ {
		step := int32(hop + 1)
		newlyActive = newlyActive[:0]
		for _, u := range active {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			v := g.Out(u)[diffusion.FixedChoice(realSeed, u, step, deg)]
			if arr[v] < 0 {
				arr[v] = step
				newlyActive = append(newlyActive, v)
			}
		}
		active = append(active, newlyActive...)
	}
	return arr
}

// refEdgeMap links the two CSR directions for the step masks: inOff[x] is
// the slot of In(x)[0] among all in-edges, and outToIn[k] is the in-edge
// slot of the k-th out-edge in (source, target) order.
type refEdgeMap struct {
	inOff   []int32
	outToIn []int32
}

func newRefEdgeMap(g *graph.Graph) *refEdgeMap {
	n := g.NumNodes()
	em := &refEdgeMap{inOff: make([]int32, n+1), outToIn: make([]int32, g.NumEdges())}
	for x := int32(0); x < n; x++ {
		em.inOff[x+1] = em.inOff[x] + g.InDegree(x)
	}
	next := slices.Clone(em.inOff[:n])
	k := 0
	for w := int32(0); w < n; w++ {
		for _, x := range g.Out(w) {
			em.outToIn[k] = next[x]
			next[x]++
			k++
		}
	}
	return em
}

// refScratch is the retired sampler's per-worker state. masks holds words
// uint64s per in-edge: bit s of in-edge w→x is set when the realization
// has w target x at step s.
type refScratch struct {
	p       *core.Problem
	em      *refEdgeMap
	masks   []uint64
	words   int
	maxHops int
	need    []refNeedSlot
	cur     int32
	buckets [][]int32
	members []uint64
	fpSeen  []int32
	fpCur   int32
	fpOut   []int32
}

// refNeedSlot is one node's search state: best is the latest hop by which
// a protector must activate the node, encoded as -1 - best once
// finalized; stamp names the search that wrote it.
type refNeedSlot struct{ stamp, best int32 }

func newRefScratch(p *core.Problem, maxHops int, footprints bool) *refScratch {
	n := p.Graph.NumNodes()
	em := newRefEdgeMap(p.Graph)
	words := maxHops/64 + 1
	sc := &refScratch{
		p:       p,
		em:      em,
		masks:   make([]uint64, len(em.outToIn)*words),
		words:   words,
		maxHops: maxHops,
		need:    make([]refNeedSlot, n),
		members: make([]uint64, n/64+1),
	}
	if footprints {
		sc.fpSeen = make([]int32, n)
	}
	return sc
}

func (sc *refScratch) fpMark(v int32) {
	if sc.fpSeen[v] != sc.fpCur {
		sc.fpSeen[v] = sc.fpCur
		sc.fpOut = append(sc.fpOut, v)
	}
}

// sample is the retired scratch.sample: forward arrivals, the step
// schedule, then one backward search per coverable end.
func (sc *refScratch) sample(realSeed uint64, realIdx int32) ([]Pair, int, []int32) {
	p := sc.p
	arrR := refArrivals(p.Graph, p.Rumors, realSeed, sc.maxHops)
	if sc.fpSeen != nil {
		sc.fpCur++
		sc.fpOut = sc.fpOut[:0]
		for u, a := range arrR {
			if a >= 0 {
				sc.fpMark(int32(u))
			}
		}
	}
	lastT := int32(0)
	for _, e := range p.Ends {
		lastT = max(lastT, arrR[e])
	}
	if lastT > 0 {
		sc.schedule(realSeed, lastT, arrR)
	}
	var pairs []Pair
	base := 0
	for ei, e := range p.Ends {
		tR := arrR[e]
		if tR < 0 {
			base++
			continue
		}
		pairs = append(pairs, Pair{Realization: realIdx, End: int32(ei), Nodes: sc.rrSet(e, tR, arrR)})
	}
	var foot []int32
	if sc.fpSeen != nil {
		foot = slices.Clone(sc.fpOut)
		slices.Sort(foot)
	}
	return pairs, base, foot
}

// schedule fills the step masks with steps 1..lastT. Rumor seeds never
// relay, so their out-edges stay empty.
func (sc *refScratch) schedule(realSeed uint64, lastT int32, arrR []int32) {
	g := sc.p.Graph
	clear(sc.masks)
	k := 0
	for w := int32(0); w < g.NumNodes(); w++ {
		deg := g.OutDegree(w)
		if deg > 0 && arrR[w] != 0 {
			slots := sc.em.outToIn[k : k+int(deg)]
			for s := int32(1); s <= lastT; s++ {
				i := int(slots[diffusion.FixedChoice(realSeed, w, s, deg)])*sc.words + int(s>>6)
				sc.masks[i] |= 1 << uint(s&63)
			}
		}
		k += int(deg)
	}
}

// latestStep returns the latest step s ≤ t at which the in-edge's source
// targets its head, or 0 if none.
func (sc *refScratch) latestStep(edge int, t int32) int32 {
	lo := edge * sc.words
	i := lo + int(t>>6)
	m := sc.masks[i] & (uint64(2)<<uint(t&63) - 1)
	for m == 0 {
		if i == lo {
			return 0
		}
		i--
		m = sc.masks[i]
	}
	return int32((i-lo)<<6 + bits.Len64(m) - 1)
}

// rrSet is the backward temporal search from end e with rumor arrival tR:
// a bucket queue over needs in [0, tR], processed high to low, where an
// in-neighbour w of x relays at the latest scheduled step t ≤ need(x) and
// gets need(w) = t − 1, capped by the rumor's arrival at w.
func (sc *refScratch) rrSet(e, tR int32, arrR []int32) []int32 {
	g := sc.p.Graph
	sc.cur++
	if int(tR)+1 > len(sc.buckets) {
		sc.buckets = make([][]int32, tR+1)
	}
	buckets := sc.buckets[:tR+1]
	for t := range buckets {
		buckets[t] = buckets[t][:0]
	}
	push := func(v, need int32) {
		sc.need[v] = refNeedSlot{stamp: sc.cur, best: need}
		buckets[need] = append(buckets[need], v)
	}
	push(e, tR)

	count, lo, hi := 0, len(sc.members), -1
	for t := tR; t >= 0; t-- {
		for bi := 0; bi < len(buckets[t]); bi++ {
			x := buckets[t][bi]
			if sc.need[x].best != t {
				continue
			}
			sc.need[x].best = -1 - t
			wi := int(x >> 6)
			sc.members[wi] |= 1 << uint(x&63)
			count, lo, hi = count+1, min(lo, wi), max(hi, wi)
			if sc.fpSeen != nil {
				sc.fpMark(x)
			}
			if t == 0 {
				continue
			}
			slot := int(sc.em.inOff[x])
			for i, w := range g.In(x) {
				if sc.fpSeen != nil && arrR[w] != 0 {
					sc.fpMark(w)
				}
				step := sc.latestStep(slot+i, t)
				if step == 0 {
					continue
				}
				cand := step - 1
				if rw := arrR[w]; rw >= 0 && rw < cand {
					cand = rw
				}
				if nw := sc.need[w]; nw.stamp == sc.cur && (nw.best < 0 || nw.best >= cand) {
					continue
				}
				push(w, cand)
			}
		}
	}
	out := make([]int32, 0, count)
	for wi := lo; wi <= hi; wi++ {
		for m := sc.members[wi]; m != 0; m &= m - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(m)))
		}
		sc.members[wi] = 0
	}
	return out
}
