package community

import (
	"slices"

	"lcrb/internal/graph"
)

// wedge is a weighted undirected adjacency entry.
type wedge struct {
	to int32
	w  float64
}

// undirected is the weighted undirected projection of a digraph that the
// Louvain method and modularity scoring operate on. Each directed edge
// contributes weight 1 to the undirected edge between its endpoints (so a
// reciprocal pair weighs 2), matching the common treatment of directed
// networks in Blondel et al.-style implementations.
type undirected struct {
	n       int32
	adj     [][]wedge
	selfW   []float64 // self-loop weight of each node (counted once)
	degrees []float64 // weighted degree: sum of incident weights + 2*selfW
	totalW  float64   // sum of all edge weights, self-loops once (i.e. "m")
}

// accum sums weights per key in [0, n) into a dense slice and records the
// keys in first-encounter order, so a reset costs only the keys it touched
// and never the whole table: a hub's row does not tax every later one.
// Every edge weight is positive, so a zero sum marks an untouched key.
type accum struct {
	w    []float64
	keys []int32
}

func newAccum(n int32) *accum { return &accum{w: make([]float64, n)} }

func (a *accum) add(k int32, w float64) {
	if a.w[k] == 0 {
		a.keys = append(a.keys, k)
	}
	a.w[k] += w
}

func (a *accum) reset() {
	for _, k := range a.keys {
		a.w[k] = 0
	}
	a.keys = a.keys[:0]
}

// project builds the undirected weighted projection of g.
func project(g *graph.Graph) *undirected {
	n := g.NumNodes()
	u := &undirected{
		n:       n,
		adj:     make([][]wedge, n),
		selfW:   make([]float64, n),
		degrees: make([]float64, n),
	}
	// Merge each node's sorted Out and In rows: a neighbour in both weighs
	// 2, in one weighs 1. Rows come out in ascending neighbour order, which
	// downstream float summation and Louvain's near-tie resolution depend
	// on. All rows share one backing array.
	arena := make([]wedge, 0, 2*g.NumEdges())
	for a := int32(0); a < n; a++ {
		start := len(arena)
		out, in := g.Out(a), g.In(a)
		for len(out) > 0 || len(in) > 0 {
			var b int32
			var w float64
			switch {
			case len(in) == 0 || len(out) > 0 && out[0] < in[0]:
				b, w, out = out[0], 1, out[1:]
			case len(out) == 0 || in[0] < out[0]:
				b, w, in = in[0], 1, in[1:]
			default:
				b, w, out, in = out[0], 2, out[1:], in[1:]
			}
			if b == a {
				u.selfW[a]++ // a self-loop is in both rows; count it once
				continue
			}
			arena = append(arena, wedge{to: b, w: w})
		}
		u.adj[a] = arena[start:len(arena):len(arena)]
	}
	u.sumDegrees()
	return u
}

// sumDegrees fills degrees and totalW from adj and selfW.
func (u *undirected) sumDegrees() {
	for a := int32(0); a < u.n; a++ {
		d := 2 * u.selfW[a]
		for _, e := range u.adj[a] {
			d += e.w
		}
		u.degrees[a] = d
		u.totalW += u.selfW[a]
		for _, e := range u.adj[a] {
			u.totalW += e.w / 2 // each undirected edge visited from both sides
		}
	}
}

// aggregate collapses the undirected graph according to the partition:
// communities become super-nodes, intra-community weight becomes self-loop
// weight, and inter-community weights are summed. Each sum runs over the
// community's members in ascending order, then in adjacency order.
func (u *undirected) aggregate(assign []int32, count int32) *undirected {
	out := &undirected{
		n:       count,
		adj:     make([][]wedge, count),
		selfW:   make([]float64, count),
		degrees: make([]float64, count),
	}
	// Counting sort of the nodes by community; each group stays ascending.
	first := make([]int32, count+1)
	for _, c := range assign {
		first[c+1]++
	}
	for c := int32(0); c < count; c++ {
		first[c+1] += first[c]
	}
	members := make([]int32, u.n)
	next := slices.Clone(first[:count])
	for a, c := range assign {
		members[next[c]] = int32(a)
		next[c]++
	}

	acc := newAccum(count)
	var arena []wedge
	ends := make([]int, count)
	for c := int32(0); c < count; c++ {
		for _, a := range members[first[c]:first[c+1]] {
			out.selfW[c] += u.selfW[a]
			for _, e := range u.adj[a] {
				if cb := assign[e.to]; cb == c {
					out.selfW[c] += e.w / 2 // both sides visited; halve
				} else {
					acc.add(cb, e.w)
				}
			}
		}
		slices.Sort(acc.keys)
		for _, cb := range acc.keys {
			arena = append(arena, wedge{to: cb, w: acc.w[cb]})
		}
		acc.reset()
		ends[c] = len(arena)
	}
	start := 0
	for c, end := range ends {
		out.adj[c] = arena[start:end:end]
		start = end
	}
	out.sumDegrees()
	return out
}

// modularity computes Newman modularity of the given assignment over the
// undirected projection.
func (u *undirected) modularity(assign []int32) float64 {
	if u.totalW == 0 {
		return 0
	}
	m2 := 2 * u.totalW
	// intra[c]: twice the intra-community edge weight; degSum[c]: total
	// weighted degree per community.
	var nComm int32
	for _, c := range assign {
		if c+1 > nComm {
			nComm = c + 1
		}
	}
	intra := make([]float64, nComm)
	degSum := make([]float64, nComm)
	for a := int32(0); a < u.n; a++ {
		c := assign[a]
		degSum[c] += u.degrees[a]
		intra[c] += 2 * u.selfW[a]
		for _, e := range u.adj[a] {
			if assign[e.to] == c {
				intra[c] += e.w
			}
		}
	}
	var q float64
	for c := int32(0); c < nComm; c++ {
		q += intra[c]/m2 - (degSum[c]/m2)*(degSum[c]/m2)
	}
	return q
}

// Modularity returns the Newman modularity of partition p over the
// undirected weighted projection of g. Higher is better; the value of the
// singleton partition on a loop-free graph is negative, and a perfect
// split of disconnected cliques approaches 1.
func Modularity(g *graph.Graph, p *Partition) float64 {
	return project(g).modularity(p.assign)
}
