// Package bridge implements the paper's first algorithmic stage: finding
// the bridge ends of a rumor community via Rumor Forward Search Trees
// (RFSTs), and building the Bridge-end Backward Search Trees (BBSTs) that
// the SCBG algorithm converts into a set-cover instance.
//
// A bridge end is a node outside the rumor community that is reachable from
// the rumor seeds along paths inside the community — the first individuals
// in neighbouring communities the rumor can touch, and the nodes the LCRB
// problem asks to protect.
package bridge

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"lcrb/internal/graph"
)

// FindEnds computes the bridge-end set B by BFS from the rumor seeds
// through the rumor community: expansion is confined to community members,
// and every node reached outside the community is recorded as a bridge end
// (an RFST leaf) without being expanded.
//
// assign maps every node to its community; rumorComm identifies the rumor
// community C_r; rumors is the seed set S_R, which must lie inside C_r.
// The returned slice is sorted.
func FindEnds(g *graph.Graph, assign []int32, rumorComm int32, rumors []int32) ([]int32, error) {
	if int32(len(assign)) != g.NumNodes() {
		return nil, fmt.Errorf("bridge: assignment covers %d nodes, graph has %d", len(assign), g.NumNodes())
	}
	if len(rumors) == 0 {
		return nil, fmt.Errorf("bridge: empty rumor seed set")
	}
	for _, r := range rumors {
		if r < 0 || r >= g.NumNodes() {
			return nil, fmt.Errorf("bridge: rumor seed %d out of range [0,%d)", r, g.NumNodes())
		}
		if assign[r] != rumorComm {
			return nil, fmt.Errorf("bridge: rumor seed %d is in community %d, not rumor community %d",
				r, assign[r], rumorComm)
		}
	}
	dist := graph.RestrictedDistances(g, rumors, graph.Forward, func(u graph.NodeID) bool {
		return assign[u] == rumorComm
	})
	var ends []int32 // ascending: dist is indexed by node
	for v, d := range dist {
		if d != graph.Unreachable && assign[v] != rumorComm {
			ends = append(ends, int32(v))
		}
	}
	return ends, nil
}

// BBSTs holds the Bridge-end Backward Search Trees of a problem instance.
type BBSTs struct {
	// Ends is the bridge-end set, in the order the trees are indexed.
	Ends []int32
	// Trees[i] is Q_{Ends[i]}: every node (rumor seeds excluded, the end
	// itself included as N^0) whose BFS distance *to* the end is at most
	// the end's rumor distance — the candidate protectors of that end.
	// Each tree is sorted.
	Trees [][]int32
	// Depths[i] is the search depth of tree i: the distance from the
	// nearest rumor seed to the end.
	Depths []int32
}

// Build constructs the BBST of every bridge end: a backward BFS from the
// end whose depth is fixed by the first rumor seed it meets (algorithm 3,
// step 4). Nodes on the rumor side of a seed are excluded because the
// protector cascade cannot pass through an already-infected node. Every
// end is validated before any tree is built. The ends are striped over
// min(GOMAXPROCS, |B|) goroutines, each with its own dense per-node
// search arrays, and every tree lands in its end's slot, so the trees are
// identical for every worker count.
func Build(g *graph.Graph, rumors, ends []int32) (*BBSTs, error) {
	n := g.NumNodes()
	isRumor := make([]bool, n)
	for _, r := range rumors {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("bridge: rumor seed %d out of range [0,%d)", r, n)
		}
		isRumor[r] = true
	}
	for _, v := range ends {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("bridge: bridge end %d out of range [0,%d)", v, n)
		}
		if isRumor[v] {
			return nil, fmt.Errorf("bridge: bridge end %d is a rumor seed", v)
		}
	}
	out := &BBSTs{
		Ends:   append([]int32(nil), ends...),
		Trees:  make([][]int32, len(ends)),
		Depths: make([]int32, len(ends)),
	}
	workers := min(runtime.GOMAXPROCS(0), len(ends))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := search{
				seen:    make([]uint32, n),
				dist:    make([]int32, n),
				members: make([]uint64, (n+63)/64),
			}
			for i := w; i < len(ends); i += workers {
				out.Trees[i], out.Depths[i] = s.backwardTree(g, isRumor, ends[i])
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// search is the scratch state of one worker's backward BFSs, reused across
// its ends.
// seen[u] == epoch marks u as reached by the current search, so starting a
// new search costs one increment instead of clearing per-node arrays;
// dist[u] is meaningful only for such u. members is a node bitmap of the
// current tree, always all-zero between searches.
type search struct {
	seen    []uint32
	epoch   uint32
	dist    []int32
	queue   []int32
	members []uint64
}

// backwardTree runs the depth-limited backward BFS from end v. The limit is
// discovered on the fly: the first rumor seed encountered at depth L caps
// the search at L. Returns the sorted candidate set and L (-1 if no rumor
// seed is backward-reachable, in which case every backward-reachable node
// is a candidate).
func (s *search) backwardTree(g *graph.Graph, isRumor []bool, v int32) ([]int32, int32) {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.seen)
		s.epoch = 1
	}
	s.seen[v], s.dist[v] = s.epoch, 0
	s.queue = append(s.queue[:0], v)
	limit := int32(-1)
	size, lo, hi := 0, int(v>>6), int(v>>6)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		d := s.dist[u]
		if limit >= 0 && d > limit {
			break // BFS order: everything past this is deeper than the cap
		}
		if isRumor[u] {
			if limit < 0 {
				limit = d
			}
			continue // rumor seeds cannot protect and block the search
		}
		s.members[u>>6] |= 1 << (u & 63)
		lo, hi = min(lo, int(u>>6)), max(hi, int(u>>6))
		size++
		if limit >= 0 && d == limit {
			continue // at the cap: record but do not expand
		}
		for _, w := range g.In(u) {
			if s.seen[w] != s.epoch {
				s.seen[w], s.dist[w] = s.epoch, d+1
				s.queue = append(s.queue, w)
			}
		}
	}
	// Emit the tree ascending straight from the bitmap, clearing the
	// touched words for the next search.
	tree := make([]int32, 0, size)
	for wi := lo; wi <= hi; wi++ {
		for w := s.members[wi]; w != 0; w &= w - 1 {
			tree = append(tree, int32(wi<<6+bits.TrailingZeros64(w)))
		}
		s.members[wi] = 0
	}
	return tree, limit
}

// Coverage is the inversion of the BBSTs (algorithm 3, step 5): for each
// candidate protector u, the set SW_u of bridge ends it can protect.
type Coverage struct {
	// Candidates lists every node that appears in at least one tree,
	// sorted ascending.
	Candidates []int32
	// Covers[i] lists the *indices into Ends* of the bridge ends candidate
	// i protects, sorted ascending.
	Covers [][]int32
	// Ends mirrors BBSTs.Ends for convenience.
	Ends []int32
}

// Invert builds the Coverage from the trees by a counting sort: count each
// node's trees, list the candidates ascending, then fill one backing array
// in tree order, so every Covers[i] is ascending and a capped subslice of
// that array.
func (b *BBSTs) Invert() *Coverage {
	maxNode := int32(-1)
	for _, tree := range b.Trees {
		for _, u := range tree {
			maxNode = max(maxNode, u)
		}
	}
	// next[u] counts u's trees, then becomes u's fill cursor in backing.
	next := make([]int32, maxNode+1)
	total, distinct := 0, 0
	for _, tree := range b.Trees {
		for _, u := range tree {
			if next[u] == 0 {
				distinct++
			}
			next[u]++
		}
		total += len(tree)
	}
	candidates := make([]int32, 0, distinct)
	for u, c := range next {
		if c > 0 {
			candidates = append(candidates, int32(u))
		}
	}
	covers := make([][]int32, len(candidates))
	backing := make([]int32, total)
	off := int32(0)
	for i, u := range candidates {
		end := off + next[u]
		covers[i] = backing[off:end:end]
		next[u] = off
		off = end
	}
	for i, tree := range b.Trees {
		for _, u := range tree {
			backing[next[u]] = int32(i)
			next[u]++
		}
	}
	return &Coverage{Candidates: candidates, Covers: covers, Ends: append([]int32(nil), b.Ends...)}
}
