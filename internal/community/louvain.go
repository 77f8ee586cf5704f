package community

import (
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// LouvainOptions tunes the Louvain method. The zero value is usable.
type LouvainOptions struct {
	// Seed drives the node-traversal shuffles; the same seed reproduces
	// the same partition.
	Seed uint64
	// MaxLevels bounds the number of aggregation levels (0 = unbounded).
	MaxLevels int
	// MinGain is the modularity improvement below which a level stops
	// iterating. Defaults to 1e-7.
	MinGain float64
	// Resolution scales the null-model term in the move gain: values
	// above 1 produce more, smaller communities; below 1 fewer, larger
	// ones. Defaults to 1.
	Resolution float64
}

// Louvain runs the Louvain community-detection method of Blondel et al.
// (2008) on the undirected weighted projection of g and returns the
// resulting partition. This is the detection step the paper uses before
// computing bridge ends.
func Louvain(g *graph.Graph, opts LouvainOptions) *Partition {
	levels := LouvainLevels(g, opts)
	return levels[len(levels)-1]
}

// LouvainLevels runs the Louvain method and returns the partition after
// every aggregation level — the dendrogram of the hierarchy, from the
// finest level (index 0) to the final partition (last index). Later levels
// only merge communities of earlier ones.
func LouvainLevels(g *graph.Graph, opts LouvainOptions) []*Partition {
	if opts.MinGain <= 0 {
		opts.MinGain = 1e-7
	}
	if opts.Resolution <= 0 {
		opts.Resolution = 1
	}
	src := rng.New(opts.Seed)

	u := project(g)
	// node -> community in the original graph, refined level by level.
	final := make([]int32, g.NumNodes())
	for i := range final {
		final[i] = int32(i)
	}

	var levels []*Partition
	record := func() {
		p, err := FromAssignment(final)
		if err != nil {
			// Unreachable: oneLevel only emits non-negative identifiers.
			panic("community: louvain produced invalid assignment: " + err.Error())
		}
		levels = append(levels, p)
	}

	level := 0
	for {
		assign, count, improved := oneLevel(u, src, opts)
		// Fold the level's assignment into the cumulative mapping.
		for i := range final {
			final[i] = assign[final[i]]
		}
		record()
		level++
		if !improved || count == u.n || (opts.MaxLevels > 0 && level >= opts.MaxLevels) {
			break
		}
		u = u.aggregate(assign, count)
	}
	return levels
}

// oneLevel performs the local-moving phase on u: nodes greedily move to the
// neighbouring community with the highest modularity gain until no move
// improves. Returns the dense community assignment, the community count and
// whether any node moved.
func oneLevel(u *undirected, src *rng.Source, opts LouvainOptions) (assign []int32, count int32, improved bool) {
	n := u.n
	assign = make([]int32, n)
	commTot := make([]float64, n) // total weighted degree per community
	for i := int32(0); i < n; i++ {
		assign[i] = i
		commTot[i] = u.degrees[i]
	}
	if u.totalW == 0 {
		return assign, n, false
	}
	m2 := 2 * u.totalW

	order := src.Perm(int(n))
	// neighbour-community weights of the node under consideration. The
	// accumulator's first-encounter key order fixes the candidate order:
	// near-ties (within MinGain) resolve in favour of the earlier candidate.
	neighW := newAccum(n)

	for pass := 0; ; pass++ {
		moved := 0
		for _, oi := range order {
			a := int32(oi)
			ca := assign[a]
			// Gather weights to neighbouring communities.
			for _, e := range u.adj[a] {
				neighW.add(assign[e.to], e.w)
			}
			// Remove a from its community.
			commTot[ca] -= u.degrees[a]
			// Gain of joining community c (relative, scaled by m2/2):
			//   k_{a,c} - resolution * tot(c) * k_a / m2
			// Staying put is the baseline.
			best, bestGain := ca, neighW.w[ca]-opts.Resolution*commTot[ca]*u.degrees[a]/m2
			for _, c := range neighW.keys {
				if c == ca {
					continue
				}
				gain := neighW.w[c] - opts.Resolution*commTot[c]*u.degrees[a]/m2
				if gain > bestGain+opts.MinGain || (gain > bestGain && c < best) {
					best, bestGain = c, gain
				}
			}
			neighW.reset()
			commTot[best] += u.degrees[a]
			if best != ca {
				assign[a] = best
				moved++
			}
		}
		if moved > 0 {
			improved = true
		}
		if moved == 0 {
			break
		}
	}

	// Renumber communities densely, in order of first appearance.
	dense := make([]int32, n)
	for i := range dense {
		dense[i] = -1
	}
	for i, c := range assign {
		if dense[c] < 0 {
			dense[c] = count
			count++
		}
		assign[i] = dense[c]
	}
	return assign, count, improved
}
