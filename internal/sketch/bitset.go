// Word-parallel coverage kernels: a packed bitset over []uint64 words and
// the CSR inverted index that together turn every σ̂ query and lazy-greedy
// recount into AND-NOT popcounts. This file replaces the map[int32]bool
// probe sets and map[int32][]int32 inversion the sketch engine shipped
// with; the retired implementations live on in reference.go as the
// differential-testing oracle.
package sketch

import (
	"math/bits"
	"sort"
)

// Bitset is a packed bit vector: bit i lives in word i/64. All kernels are
// word-parallel — 64 membership answers per machine instruction via
// math/bits.OnesCount64 — and allocation-free, which is what makes the
// lazy-greedy selector's recount loop cheap enough to run thousands of
// times per solve.
type Bitset []uint64

// NewBitset returns a zeroed bitset holding n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int32) { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// Test reports whether bit i is set.
func (b Bitset) Test(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrInPlace ors src into b word by word. The receiver must be at least as
// long as src.
func (b Bitset) OrInPlace(src Bitset) {
	dst := b[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] |= src[i]
		dst[i+1] |= src[i+1]
		dst[i+2] |= src[i+2]
		dst[i+3] |= src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] |= src[i]
	}
}

// AndNotCount returns popcount(b &^ mask): the number of bits set in b but
// clear in mask — a marginal-coverage count when b is a candidate's pair
// row and mask the pairs already covered. mask must be at least as long
// as b. The 4-way unroll keeps four OnesCount64 (POPCNT) results in
// flight per iteration instead of serialising on one accumulator load —
// this loop is the hottest in the lazy-greedy recount path.
func (b Bitset) AndNotCount(mask Bitset) int {
	m := mask[:len(b)]
	c0, c1, c2, c3 := 0, 0, 0, 0
	i := 0
	for ; i+4 <= len(b); i += 4 {
		c0 += bits.OnesCount64(b[i] &^ m[i])
		c1 += bits.OnesCount64(b[i+1] &^ m[i+1])
		c2 += bits.OnesCount64(b[i+2] &^ m[i+2])
		c3 += bits.OnesCount64(b[i+3] &^ m[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(b); i++ {
		c += bits.OnesCount64(b[i] &^ m[i])
	}
	return c
}

// arenaBudgetBytes caps the memory spent on the per-candidate bitset rows.
// Above the budget the index serves gains by walking its CSR pair lists
// against the covered bitset instead — still allocation-free and exactly
// equal, just not word-parallel. 256 MiB covers every instance the repo's
// benchmarks and experiments build by orders of magnitude. A variable
// only so tests can force the fallback.
var arenaBudgetBytes = 1 << 28

// pairIndex is the node → pair inversion of a Set in CSR form: one flat
// pair array with int32 offsets per candidate row, plus (budget allowing)
// a bitset arena holding each candidate's pairs as a row of words so a
// marginal-gain recount is a single AndNotCount sweep.
//
// The index is a pure function of the Pairs slice, whatever the worker
// count that built it, so rebuilding it after a Load reproduces the built
// one field for field — the store round-trip tests compare with
// reflect.DeepEqual.
type pairIndex struct {
	// numPairs is len(Set.Pairs); every bitset in play holds that many bits.
	numPairs int
	// words is the per-row word count of the arena, (numPairs+63)/64.
	words int
	// nodes lists the candidate nodes ascending; row r belongs to nodes[r].
	nodes []int32
	// off and pairs are the CSR inversion: row r's pair indices are
	// pairs[off[r]:off[r+1]], ascending within the row.
	off   []int32
	pairs []int32
	// rowOf maps a node id to its row, -1 for nodes in no RR set.
	rowOf []int32
	// arena holds row r's pair bitset at [r*words, (r+1)*words), or is nil
	// when the rows would not fit arenaBudgetBytes.
	arena []uint64
}

// newPairIndex builds the CSR inversion (and, within budget, the bitset
// arena) of pairs as a chunked transpose on up to workers goroutines.
// Each worker counts node occurrences in one contiguous chunk of pairs,
// the chunks balanced by RR entries. A serial pass over node ids turns the
// counts into rows in ascending node order, their offsets, and per-chunk
// write cursors: within a row, chunk c's slots follow every earlier
// chunk's. Each worker then scatters its chunk's pair indices into its own
// slots, visiting pairs in index order, so every row's list comes out
// ascending without a sort, and the arena is filled by row range. The
// index is therefore identical for every workers value.
func newPairIndex(pairs []Pair, workers int) *pairIndex {
	ix := &pairIndex{numPairs: len(pairs), words: (len(pairs) + 63) / 64}
	bounds := pairChunks(pairs, workers)
	chunks := len(bounds) - 1
	chunk := func(c int) []Pair { return pairs[bounds[c]:bounds[c+1]] }

	// counts[c][u] is node u's occurrence count in chunk c, sized by the
	// chunk's own largest id.
	counts := make([][]int32, chunks)
	runStriped(chunks, chunks, func(c, _ int) {
		var cnt []int32
		for _, pair := range chunk(c) {
			for _, u := range pair.Nodes {
				if int(u) >= len(cnt) {
					cnt = append(cnt, make([]int32, int(u)+1-len(cnt))...)
				}
				cnt[u]++
			}
		}
		counts[c] = cnt
	})
	maxNode := int32(-1)
	for _, cnt := range counts {
		maxNode = max(maxNode, int32(len(cnt))-1)
	}

	// Rows in ascending node order; each count becomes its chunk's cursor.
	ix.rowOf = make([]int32, maxNode+1)
	ix.off = make([]int32, 1, len(ix.rowOf)+1)
	pos := int32(0)
	for u := int32(0); u <= maxNode; u++ {
		start := pos
		for _, cnt := range counts {
			if int(u) < len(cnt) {
				cnt[u], pos = pos, pos+cnt[u]
			}
		}
		if pos == start {
			ix.rowOf[u] = -1
			continue
		}
		ix.rowOf[u] = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, u)
		ix.off = append(ix.off, pos)
	}
	ix.pairs = make([]int32, pos)
	runStriped(chunks, chunks, func(c, _ int) {
		cursor := counts[c]
		for pi, pair := range chunk(c) {
			for _, u := range pair.Nodes {
				ix.pairs[cursor[u]] = int32(bounds[c] + pi)
				cursor[u]++
			}
		}
	})
	if n := len(ix.nodes) * ix.words * 8; n > 0 && n <= arenaBudgetBytes {
		ix.buildArena(chunks)
	}
	return ix
}

// pairChunks splits pairs into contiguous chunks holding about equal
// numbers of RR entries, chunk c being pairs[bounds[c]:bounds[c+1]]: as
// many chunks as workers, but no more than there are pairs, and at least
// one.
func pairChunks(pairs []Pair, workers int) []int {
	workers = max(1, min(workers, len(pairs)))
	total := 0
	for _, pair := range pairs {
		total += len(pair.Nodes)
	}
	bounds := make([]int, 1, workers+1)
	seen := 0
	for i, pair := range pairs {
		for len(bounds) < workers && seen*workers >= total*len(bounds) {
			bounds = append(bounds, i)
		}
		seen += len(pair.Nodes)
	}
	for len(bounds) <= workers {
		bounds = append(bounds, len(pairs))
	}
	return bounds
}

// buildArena materializes every row's pair list as a bitset row, on up to
// workers goroutines that each fill a contiguous row range holding about
// an equal share of the index's pairs.
func (ix *pairIndex) buildArena(workers int) {
	ix.arena = make([]uint64, len(ix.nodes)*ix.words)
	rows, total := len(ix.nodes), int(ix.off[len(ix.nodes)])
	split := func(k, of int) int32 {
		return int32(sort.Search(rows, func(r int) bool { return int(ix.off[r])*of >= total*k }))
	}
	runStriped(workers, workers, func(w, stride int) {
		for r := split(w, stride); r < split(w+1, stride); r++ {
			row := ix.rowBits(r)
			for _, pi := range ix.rowList(r) {
				row.Set(pi)
			}
		}
	})
}

// row returns the row of node u, or -1 when u is in no RR set.
func (ix *pairIndex) row(u int32) int32 {
	if u < 0 || int(u) >= len(ix.rowOf) {
		return -1
	}
	return ix.rowOf[u]
}

// rowList returns row r's pair indices, ascending.
func (ix *pairIndex) rowList(r int32) []int32 {
	return ix.pairs[ix.off[r]:ix.off[r+1]]
}

// rowBits returns row r's arena bitset, or nil when the arena is off.
func (ix *pairIndex) rowBits(r int32) Bitset {
	if ix.arena == nil {
		return nil
	}
	return Bitset(ix.arena[int(r)*ix.words : (int(r)+1)*ix.words])
}

// sparseRowFactor picks the gain/commit strategy per row: a row with
// fewer than words/sparseRowFactor pairs is served by walking its CSR
// list (O(row length) random probes) instead of sweeping every arena
// word (O(words) sequential popcounts). Both strategies return identical
// counts; only the constant factors differ, and 4 balances a random
// probe costing a few times a sequential word op.
const sparseRowFactor = 4

// gain counts row r's pairs not yet in covered — the candidate's marginal
// coverage — with zero allocations: one AndNotCount sweep for dense rows
// when the arena is live, a CSR walk with Test probes for sparse rows or
// when the arena is off.
func (ix *pairIndex) gain(r int32, covered Bitset) int {
	list := ix.rowList(r)
	if row := ix.rowBits(r); row != nil && len(list)*sparseRowFactor > ix.words {
		return row.AndNotCount(covered)
	}
	g := 0
	for _, pi := range list {
		if !covered.Test(pi) {
			g++
		}
	}
	return g
}

// commit marks row r's pairs covered, with the same dense/sparse split as
// gain.
func (ix *pairIndex) commit(r int32, covered Bitset) {
	list := ix.rowList(r)
	if row := ix.rowBits(r); row != nil && len(list)*sparseRowFactor > ix.words {
		covered.OrInPlace(row)
		return
	}
	for _, pi := range list {
		covered.Set(pi)
	}
}
