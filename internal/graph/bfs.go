package graph

// Direction selects which adjacency a traversal follows.
type Direction int

const (
	// Forward follows out-edges: u -> v means v is visited from u.
	Forward Direction = iota + 1
	// Backward follows in-edges: u -> v means u is visited from v.
	Backward
)

// neighbors returns the adjacency of u in the given direction.
func (g *Graph) neighbors(u NodeID, dir Direction) []int32 {
	if dir == Backward {
		return g.In(u)
	}
	return g.Out(u)
}

// Unreachable is the distance value assigned to nodes a BFS never reaches.
const Unreachable int32 = -1

// Distances runs a multi-source BFS from sources in the given direction and
// returns the hop distance of every node (Unreachable where no path exists).
// Source nodes have distance 0. Duplicate sources are harmless.
func Distances(g *Graph, sources []int32, dir Direction) []int32 {
	return DistancesBounded(g, sources, dir, -1)
}

// DistancesBounded is Distances limited to maxDepth hops. Nodes farther than
// maxDepth keep distance Unreachable. A negative maxDepth means unbounded.
func DistancesBounded(g *Graph, sources []int32, dir Direction, maxDepth int32) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.NumNodes() || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u]
		if maxDepth >= 0 && d >= maxDepth {
			continue
		}
		for _, v := range g.neighbors(u, dir) {
			if dist[v] == Unreachable {
				dist[v] = d + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Reachable returns the nodes reachable from sources (inclusive) in the
// given direction, in BFS order.
func Reachable(g *Graph, sources []int32, dir Direction) []int32 {
	seen := make([]bool, g.NumNodes())
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.NumNodes() || seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.neighbors(u, dir) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// RestrictedDistances runs a multi-source BFS that only *expands* through
// nodes for which expand returns true. Nodes failing the predicate still
// receive a distance when first reached, but their neighbours are not
// explored through them. Sources are always expanded.
//
// This is the primitive behind Rumor Forward Search Trees: BFS from the
// rumor seeds expands only inside the rumor community; the first nodes
// reached outside it (the bridge ends) are recorded but not expanded.
func RestrictedDistances(g *Graph, sources []int32, dir Direction, expand func(NodeID) bool) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.NumNodes() || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] > 0 && !expand(u) {
			continue
		}
		for _, v := range g.neighbors(u, dir) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
