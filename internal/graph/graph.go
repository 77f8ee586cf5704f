// Package graph provides the directed-graph substrate used by the rumor
// blocking library: a compact CSR (compressed sparse row) representation
// with both out- and in-adjacency, an incremental Builder, BFS primitives,
// edge-list I/O, and structural statistics.
//
// Nodes are dense int32 identifiers in [0, N). Graphs are immutable once
// built, which makes them safe for concurrent readers (every simulator and
// solver in this module shares one *Graph across goroutines).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node. Node identifiers are dense: a graph with N nodes
// uses exactly the identifiers 0..N-1.
type NodeID = int32

// Graph is an immutable directed graph in CSR form. Both adjacency
// directions are stored: Out(u) lists activation targets of u, In(v) lists
// potential influencers of v (needed by backward search trees).
type Graph struct {
	numNodes int32
	numEdges int64

	outOff []int64 // len numNodes+1
	outAdj []int32 // len numEdges, sorted within each node's range
	inOff  []int64
	inAdj  []int32

	// allowSelfLoops records the Builder policy the graph was built under,
	// so derived graphs (Reverse, Symmetrize, Induce) keep self-loops a
	// permissive graph legitimately contains instead of silently dropping
	// them through a default Builder.
	allowSelfLoops bool

	// digestOnce guards digest, the memoized Digest. The CSR arrays never
	// change after construction, so one computation serves every caller.
	digestOnce sync.Once
	digest     uint64
}

// Digest returns a 64-bit digest of the adjacency structure: the node
// count, then every out-neighbour row in node order, each value folded in
// through the SplitMix64 finalizer. Sketch fingerprints embed it, so the
// formula is part of their on-disk format. O(V + E) on the first call,
// memoized after; safe for concurrent use.
func (g *Graph) Digest() uint64 {
	g.digestOnce.Do(func() {
		h := mix64(uint64(g.numNodes))
		for u := int32(0); u < g.numNodes; u++ {
			out := g.Out(u)
			h = mix64(h ^ uint64(len(out)))
			for _, v := range out {
				h = mix64(h ^ uint64(uint32(v)))
			}
		}
		g.digest = h
	})
	return g.digest
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixer. Not cryptographic; Digest guards against staleness, not
// adversaries.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int32 { return g.numNodes }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Out returns the out-neighbours of u in ascending order. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Out(u NodeID) []int32 {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// In returns the in-neighbours of v in ascending order. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) In(v NodeID) []int32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the number of out-neighbours of u.
func (g *Graph) OutDegree(u NodeID) int32 {
	return int32(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of in-neighbours of v.
func (g *Graph) InDegree(v NodeID) int32 {
	return int32(g.inOff[v+1] - g.inOff[v])
}

// AllowsSelfLoops reports whether the graph was built under the
// AllowSelfLoops policy; derived graphs inherit it.
func (g *Graph) AllowsSelfLoops() bool { return g.allowSelfLoops }

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Out(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		numNodes:       g.numNodes,
		numEdges:       g.numEdges,
		outOff:         g.inOff,
		outAdj:         g.inAdj,
		inOff:          g.outOff,
		inAdj:          g.outAdj,
		allowSelfLoops: g.allowSelfLoops,
	}
}

// Edge is a directed edge from U to V.
type Edge struct {
	U, V NodeID
}

// Edges returns all edges in (U, V) ascending order. The slice is freshly
// allocated and owned by the caller.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdges)
	for u := int32(0); u < g.numNodes; u++ {
		for _, v := range g.Out(u) {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

// Symmetrize returns a graph that contains both (u,v) and (v,u) for every
// edge of g, with duplicates removed. The paper applies this to undirected
// collaboration networks ("we represent each undirected edge (i,j) by two
// directed edges (i,j) and (j,i)").
func (g *Graph) Symmetrize() *Graph {
	b := NewBuilder(g.numNodes)
	if g.allowSelfLoops {
		b.AllowSelfLoops()
	}
	for u := int32(0); u < g.numNodes; u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	sym, err := b.Build()
	if err != nil {
		// Unreachable: all endpoints come from a valid graph.
		panic(fmt.Sprintf("graph: symmetrize: %v", err))
	}
	return sym
}

// Subgraph is an induced subgraph together with the node-identifier mapping
// back to the parent graph.
type Subgraph struct {
	// Graph is the induced subgraph over dense local identifiers.
	Graph *Graph
	// ToParent maps local node identifiers to parent identifiers.
	ToParent []int32
	// ToLocal maps parent identifiers to local identifiers; nodes outside
	// the subgraph map to -1.
	ToLocal []int32
}

// Induce returns the subgraph induced by nodes (duplicates ignored).
func (g *Graph) Induce(nodes []int32) (*Subgraph, error) {
	toLocal := make([]int32, g.numNodes)
	for i := range toLocal {
		toLocal[i] = -1
	}
	var toParent []int32
	for _, u := range nodes {
		if u < 0 || u >= g.numNodes {
			return nil, fmt.Errorf("graph: induce: node %d out of range [0,%d)", u, g.numNodes)
		}
		if toLocal[u] < 0 {
			toLocal[u] = int32(len(toParent))
			toParent = append(toParent, u)
		}
	}
	b := NewBuilder(int32(len(toParent)))
	if g.allowSelfLoops {
		b.AllowSelfLoops()
	}
	for local, parent := range toParent {
		for _, v := range g.Out(parent) {
			if lv := toLocal[v]; lv >= 0 {
				b.AddEdge(int32(local), lv)
			}
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Subgraph{Graph: sg, ToParent: toParent, ToLocal: toLocal}, nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges collapse into one, and Dropped counts the extra instances. An edge
// carries no state, so the delta-stream convention of internal/dyngraph,
// where a re-added edge carries the latest state, holds whichever instance
// is kept. Self-loops are rejected by default because no diffusion model in
// this module can use them; call AllowSelfLoops to keep them.
type Builder struct {
	numNodes       int32
	edges          []Edge
	allowSelfLoops bool
	// dropped counts edges AddEdge refused (negative endpoints); see
	// Dropped.
	dropped int64
	// overwritten counts duplicate-edge collapses observed by the latest
	// Build — earlier instances overwritten by a later AddEdge of the same
	// (u, v) — and loops the self-loops it refused. Both are recomputed per
	// Build (pure functions of the recorded edges), so reusing the Builder
	// never double-counts.
	overwritten int64
	loops       int64
}

// NewBuilder returns a Builder for a graph with numNodes nodes.
func NewBuilder(numNodes int32) *Builder {
	if numNodes < 0 {
		numNodes = 0
	}
	return &Builder{numNodes: numNodes}
}

// AllowSelfLoops makes Build keep self-loop edges instead of dropping them.
func (b *Builder) AllowSelfLoops() *Builder {
	b.allowSelfLoops = true
	return b
}

// Grow ensures the node-identifier space covers at least numNodes nodes.
func (b *Builder) Grow(numNodes int32) {
	if numNodes > b.numNodes {
		b.numNodes = numNodes
	}
}

// AddEdge records the directed edge (u, v). Endpoints extend the node space
// if needed, so callers may build graphs without knowing N up front.
// Edges with negative identifiers are ignored and counted; Dropped reports
// the running total.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || v < 0 {
		b.dropped++
		return
	}
	if u >= b.numNodes {
		b.numNodes = u + 1
	}
	if v >= b.numNodes {
		b.numNodes = v + 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// NumPendingEdges returns the number of edges recorded so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Dropped returns the number of recorded edges that did not survive into
// the built graph as distinct edges: edges AddEdge ignored because an
// endpoint was negative, plus, in the latest Build, the self-loops it
// refused (without AllowSelfLoops) and the extra instances of duplicate
// edges, collapsed into one per (u, v). The
// negative-endpoint count accumulates across Build calls, matching the
// Builder's reuse contract; the self-loop and overwrite counts reflect the
// latest Build.
func (b *Builder) Dropped() int64 { return b.dropped + b.loops + b.overwritten }

// Build produces the immutable graph. The Builder may be reused afterwards;
// its recorded edges are retained.
func (b *Builder) Build() (*Graph, error) {
	if b.numNodes == 0 && len(b.edges) > 0 {
		return nil, errors.New("graph: edges recorded but node space is empty")
	}
	// Sort the edges as packed U<<32|V keys, which order as (U, V). No
	// stability is needed: equal keys are the same edge, so which instance
	// of a duplicate survives is unobservable; Dropped counts the others.
	keys := make([]uint64, 0, len(b.edges))
	b.loops = 0
	for _, e := range b.edges {
		if e.U == e.V && !b.allowSelfLoops {
			b.loops++
			continue
		}
		keys = append(keys, uint64(e.U)<<32|uint64(e.V))
	}
	slices.Sort(keys)
	recorded := len(keys)
	keys = slices.Compact(keys)
	b.overwritten = int64(recorded - len(keys))

	g := &Graph{
		numNodes:       b.numNodes,
		numEdges:       int64(len(keys)),
		outOff:         make([]int64, b.numNodes+1),
		outAdj:         make([]int32, len(keys)),
		inOff:          make([]int64, b.numNodes+1),
		inAdj:          make([]int32, len(keys)),
		allowSelfLoops: b.allowSelfLoops,
	}

	// Counting pass for both directions.
	for _, k := range keys {
		g.outOff[k>>32+1]++
		g.inOff[uint32(k)+1]++
	}
	for i := int32(0); i < b.numNodes; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	// Fill pass. Out-adjacency is already sorted by (U, V); in-adjacency
	// receives sources in ascending order because keys are sorted by U.
	cursor := make([]int64, b.numNodes)
	for i, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		g.outAdj[i] = v
		g.inAdj[g.inOff[v]+cursor[v]] = u
		cursor[v]++
	}
	return g, nil
}

// FromEdges builds a graph with numNodes nodes from an edge list,
// dropping self-loops and duplicates.
func FromEdges(numNodes int32, edges []Edge) (*Graph, error) {
	b := NewBuilder(numNodes)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromSortedAdjacency builds a graph directly from per-node out-neighbour
// rows that are already strictly ascending — the snapshot materialization
// path of internal/dyngraph, which maintains sorted rows incrementally and
// must not pay the Builder's O(E log E) re-sort on every mutation batch.
// Row u lists the out-neighbours of node u; the node count is len(out).
// The rows are copied, never aliased, so the returned graph stays immutable
// when the caller keeps mutating its rows. O(V + E).
//
// Every neighbour must be in [0, len(out)) and each row strictly ascending
// (duplicates are a row invariant violation here, not collapsed); self-loops
// are rejected unless allowSelfLoops, mirroring the Builder policy.
func FromSortedAdjacency(out [][]int32, allowSelfLoops bool) (*Graph, error) {
	n := int32(len(out))
	var m int64
	for u, row := range out {
		prev := int32(-1)
		for _, v := range row {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: from sorted adjacency: node %d: neighbour %d out of range [0,%d)", u, v, n)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: from sorted adjacency: node %d: row not strictly ascending at neighbour %d", u, v)
			}
			if v == int32(u) && !allowSelfLoops {
				return nil, fmt.Errorf("graph: from sorted adjacency: self-loop %d->%d not allowed", u, u)
			}
			prev = v
		}
		m += int64(len(row))
	}
	g := &Graph{
		numNodes:       n,
		numEdges:       m,
		outOff:         make([]int64, n+1),
		outAdj:         make([]int32, m),
		inOff:          make([]int64, n+1),
		inAdj:          make([]int32, m),
		allowSelfLoops: allowSelfLoops,
	}
	// Counting pass for the in-direction; the out-direction offsets follow
	// the row lengths directly.
	for u, row := range out {
		g.outOff[u+1] = g.outOff[u] + int64(len(row))
		for _, v := range row {
			g.inOff[v+1]++
		}
	}
	for i := int32(0); i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	// Fill pass. Out-adjacency copies the sorted rows; in-adjacency receives
	// sources in ascending order because rows are visited in node order.
	cursor := make([]int64, n)
	for u, row := range out {
		copy(g.outAdj[g.outOff[u]:g.outOff[u+1]], row)
		for _, v := range row {
			g.inAdj[g.inOff[v]+cursor[v]] = int32(u)
			cursor[v]++
		}
	}
	return g, nil
}
