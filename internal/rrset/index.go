// Word-parallel coverage kernels: a packed bitset over []uint64 words and
// the CSR inverted index that together turn every σ̂ query and lazy-greedy
// recount into AND-NOT popcounts. internal/sketch keeps the map-based
// inversion these replaced as its differential-testing oracle
// (sketch.ReferenceIndex).
package rrset

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

// Index is the node → pair inversion of a pair slice in CSR form: one flat
// pair array with int32 offsets per candidate row, plus, when the rows are
// dense enough, a bitset arena holding each candidate's pairs as a row of
// words so a marginal-gain count is a single AndNotCount sweep. The fields
// are read-only once NewIndex returns.
//
// The index is a pure function of the pairs, whatever the worker count
// that built it, so rebuilding it after loading a stored sketch
// reproduces the built one field for field.
type Index struct {
	// NumPairs is the number of indexed pairs; every bitset in play holds
	// that many bits.
	NumPairs int
	// Words is the per-row word count of the arena, (NumPairs+63)/64.
	Words int
	// Nodes lists the candidate nodes ascending; row r belongs to Nodes[r].
	Nodes []int32
	// Off and Pairs are the CSR inversion: row r's pair indices are
	// Pairs[Off[r]:Off[r+1]], ascending within the row.
	Off   []int32
	Pairs []int32
	// RowOf maps a node id to its row, -1 for nodes in no RR set.
	RowOf []int32
	// Source is the pair slice the index inverts, shared, not copied:
	// pair p's RR set is Source[p].Nodes. Cover's decrement kernel walks
	// it to find the rows a newly covered pair leaves.
	Source []Pair
	// Arena holds row r's pair bitset at [r*Words, (r+1)*Words), or is nil
	// when the rows are too sparse to pay for it (see NewIndex).
	Arena []uint64
}

// arenaBitsPerWord is the density below which NewIndex builds no arena:
// the rows must average at least this many pair bits per arena word, so
// the arena is at most half the bytes of the CSR list it mirrors.
// Measured on lazy covers, the arena sweep is about 5× faster than exact
// gain decrements on the hep serving sketches (11 bits per word), about
// 3× slower on the paper-scale Enron ones (1.5), and the two tie near 3
// to 4 (see DESIGN.md §13.1).
const arenaBitsPerWord = 4

// NewIndex builds the CSR inversion of pairs, and the bitset arena when
// the rows hold at least arenaBitsPerWord pair bits per arena word, as a
// chunked transpose on up to workers goroutines. Each worker counts node
// occurrences in one contiguous chunk of pairs, the chunks balanced by RR
// entries. A serial pass over node ids turns the counts into rows in
// ascending node order, their offsets, and per-chunk write cursors:
// within a row, chunk c's slots follow every earlier chunk's. Each worker
// then scatters its chunk's pair indices into its own slots, visiting
// pairs in index order, so every row's list comes out ascending without a
// sort, and the arena is filled by row range. The index is therefore
// identical for every workers value.
func NewIndex(pairs []Pair, workers int) *Index {
	ix := &Index{NumPairs: len(pairs), Words: (len(pairs) + 63) / 64, Source: pairs}
	bounds := pairChunks(pairs, workers)
	chunks := len(bounds) - 1
	chunk := func(c int) []Pair { return pairs[bounds[c]:bounds[c+1]] }

	// counts[c][u] is node u's occurrence count in chunk c, sized by the
	// chunk's own largest id.
	counts := make([][]int32, chunks)
	stripe(chunks, chunks, func(c, _ int) {
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
	ix.RowOf = make([]int32, maxNode+1)
	ix.Off = make([]int32, 1, len(ix.RowOf)+1)
	pos := int32(0)
	for u := int32(0); u <= maxNode; u++ {
		start := pos
		for _, cnt := range counts {
			if int(u) < len(cnt) {
				cnt[u], pos = pos, pos+cnt[u]
			}
		}
		if pos == start {
			ix.RowOf[u] = -1
			continue
		}
		ix.RowOf[u] = int32(len(ix.Nodes))
		ix.Nodes = append(ix.Nodes, u)
		ix.Off = append(ix.Off, pos)
	}
	ix.Pairs = make([]int32, pos)
	stripe(chunks, chunks, func(c, _ int) {
		cursor := counts[c]
		for pi, pair := range chunk(c) {
			for _, u := range pair.Nodes {
				ix.Pairs[cursor[u]] = int32(bounds[c] + pi)
				cursor[u]++
			}
		}
	})
	if len(ix.Nodes) > 0 && len(ix.Nodes)*ix.Words*arenaBitsPerWord <= len(ix.Pairs) {
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
func (ix *Index) buildArena(workers int) {
	ix.Arena = make([]uint64, len(ix.Nodes)*ix.Words)
	rows, total := len(ix.Nodes), int(ix.Off[len(ix.Nodes)])
	split := func(k, of int) int32 {
		return int32(sort.Search(rows, func(r int) bool { return int(ix.Off[r])*of >= total*k }))
	}
	stripe(workers, workers, func(w, stride int) {
		for r := split(w, stride); r < split(w+1, stride); r++ {
			row := ix.RowBits(r)
			for _, pi := range ix.RowList(r) {
				row.Set(pi)
			}
		}
	})
}

// Row returns the row of node u, or -1 when u is in no RR set.
func (ix *Index) Row(u int32) int32 {
	if u < 0 || int(u) >= len(ix.RowOf) {
		return -1
	}
	return ix.RowOf[u]
}

// RowList returns row r's pair indices, ascending.
func (ix *Index) RowList(r int32) []int32 {
	return ix.Pairs[ix.Off[r]:ix.Off[r+1]]
}

// RowBits returns row r's arena bitset, or nil when the arena is off.
func (ix *Index) RowBits(r int32) Bitset {
	if ix.Arena == nil {
		return nil
	}
	return Bitset(ix.Arena[int(r)*ix.Words : (int(r)+1)*ix.Words])
}

// sparseRowFactor picks the gain/commit strategy per row: a row with
// fewer than Words/sparseRowFactor pairs is served by walking its CSR
// list (O(row length) random probes) instead of sweeping every arena
// word (O(Words) sequential popcounts). Both strategies return identical
// counts; only the constant factors differ, and 4 balances a random
// probe costing a few times a sequential word op.
const sparseRowFactor = 4

// Gain counts row r's pairs not yet in covered — the candidate's marginal
// coverage — with zero allocations: one AndNotCount sweep for dense rows
// when the arena is live, a CSR walk with Test probes for sparse rows or
// when the arena is off.
func (ix *Index) Gain(r int32, covered Bitset) int {
	list := ix.RowList(r)
	if row := ix.RowBits(r); row != nil && len(list)*sparseRowFactor > ix.Words {
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

// Commit marks row r's pairs covered, with the same dense/sparse split as
// Gain.
func (ix *Index) Commit(r int32, covered Bitset) {
	list := ix.RowList(r)
	if row := ix.RowBits(r); row != nil && len(list)*sparseRowFactor > ix.Words {
		covered.OrInPlace(row)
		return
	}
	for _, pi := range list {
		covered.Set(pi)
	}
}

// Covered counts the pairs whose RR set holds at least one of nodes: OR
// each node's row into one covered bitset, then popcount. Nodes in no RR
// set contribute nothing.
func (ix *Index) Covered(nodes []int32) int {
	if ix.NumPairs == 0 {
		return 0
	}
	covered := NewBitset(ix.NumPairs)
	for _, u := range nodes {
		if r := ix.Row(u); r >= 0 {
			ix.Commit(r, covered)
		}
	}
	return covered.Count()
}
