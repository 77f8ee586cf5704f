// Package community implements the community-detection substrate the paper
// relies on: the Louvain method of Blondel et al. (2008) — the algorithm the
// paper uses to partition its networks — plus modularity scoring and
// partition utilities.
package community

import "fmt"

// Partition assigns every node of a graph to exactly one community.
// Community identifiers are dense in [0, Count).
type Partition struct {
	assign []int32
	count  int32
	// sizes[c] is the number of members of community c.
	sizes []int32
}

// FromAssignment builds a Partition from a raw per-node community
// assignment. Identifiers may be arbitrary non-negative values; they are
// renumbered densely in order of first appearance. Negative values are
// rejected.
func FromAssignment(assign []int32) (*Partition, error) {
	dense := make(map[int32]int32)
	out := make([]int32, len(assign))
	var sizes []int32
	for i, raw := range assign {
		if raw < 0 {
			return nil, fmt.Errorf("community: node %d has negative community %d", i, raw)
		}
		id, ok := dense[raw]
		if !ok {
			id = int32(len(sizes))
			dense[raw] = id
			sizes = append(sizes, 0)
		}
		out[i] = id
		sizes[id]++
	}
	return &Partition{assign: out, count: int32(len(sizes)), sizes: sizes}, nil
}

// Singletons returns the partition that puts every node of an n-node graph
// in its own community.
func Singletons(n int32) *Partition {
	assign := make([]int32, n)
	sizes := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i)
		sizes[i] = 1
	}
	return &Partition{assign: assign, count: n, sizes: sizes}
}

// NumNodes returns the number of nodes covered by the partition.
func (p *Partition) NumNodes() int32 { return int32(len(p.assign)) }

// Count returns the number of communities.
func (p *Partition) Count() int32 { return p.count }

// Of returns the community of node u.
func (p *Partition) Of(u int32) int32 { return p.assign[u] }

// Assign returns a copy of the per-node assignment.
func (p *Partition) Assign() []int32 {
	out := make([]int32, len(p.assign))
	copy(out, p.assign)
	return out
}

// Size returns the number of members of community c.
func (p *Partition) Size(c int32) int32 { return p.sizes[c] }

// Sizes returns a copy of the per-community size table.
func (p *Partition) Sizes() []int32 {
	out := make([]int32, len(p.sizes))
	copy(out, p.sizes)
	return out
}

// Members returns the nodes of community c in ascending order.
func (p *Partition) Members(c int32) []int32 {
	out := make([]int32, 0, p.sizes[c])
	for u, pc := range p.assign {
		if pc == c {
			out = append(out, int32(u))
		}
	}
	return out
}

// InSame reports whether nodes u and v belong to the same community.
func (p *Partition) InSame(u, v int32) bool { return p.assign[u] == p.assign[v] }

// ClosestBySize returns the community whose size is closest to want,
// breaking ties towards the smaller community identifier. It is how the
// experiment harness picks "a community of about 308 nodes" the way the
// paper picked its rumor communities.
func (p *Partition) ClosestBySize(want int32) int32 {
	best, bestDiff := int32(0), int32(-1)
	for c := int32(0); c < p.count; c++ {
		diff := p.sizes[c] - want
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			best, bestDiff = c, diff
		}
	}
	return best
}

// Validate checks internal consistency against an n-node graph.
func (p *Partition) Validate(n int32) error {
	if int32(len(p.assign)) != n {
		return fmt.Errorf("community: partition covers %d nodes, graph has %d", len(p.assign), n)
	}
	counted := make([]int32, p.count)
	for u, c := range p.assign {
		if c < 0 || c >= p.count {
			return fmt.Errorf("community: node %d assigned out-of-range community %d", u, c)
		}
		counted[c]++
	}
	for c, got := range counted {
		if got != p.sizes[c] {
			return fmt.Errorf("community: size table mismatch for community %d: %d != %d", c, got, p.sizes[c])
		}
		if got == 0 {
			return fmt.Errorf("community: community %d is empty", c)
		}
	}
	return nil
}
