package community

import (
	"slices"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// LabelPropOptions tunes label propagation. The zero value is usable.
type LabelPropOptions struct {
	// Seed drives traversal order and tie breaking.
	Seed uint64
	// MaxIterations bounds the number of full passes. Defaults to 100.
	MaxIterations int
}

// LabelProp runs synchronous-free (sequential) label propagation on the
// undirected projection of g: every node repeatedly adopts the label most
// common among its neighbours, ties broken uniformly at random, until a
// full pass changes nothing. It is the cheap alternative front end to
// Louvain for the bridge-end pipeline (ablated in the benchmarks).
func LabelProp(g *graph.Graph, opts LabelPropOptions) *Partition {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	src := rng.New(opts.Seed)
	u := project(g)
	n := u.n

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}

	weights := newAccum(n)
	var ties []int32
	for iter := 0; iter < opts.MaxIterations; iter++ {
		changed := 0
		for _, oi := range src.Perm(int(n)) {
			a := int32(oi)
			if len(u.adj[a]) == 0 {
				continue
			}
			var bestW float64
			for _, e := range u.adj[a] {
				weights.add(labels[e.to], e.w)
				bestW = max(bestW, weights.w[labels[e.to]])
			}
			var next int32
			if cur := labels[a]; weights.w[cur] == bestW {
				// Prefer keeping the current label on ties: helps
				// convergence and keeps runs deterministic.
				next = cur
			} else {
				ties = ties[:0]
				for _, l := range weights.keys {
					if weights.w[l] == bestW {
						ties = append(ties, l)
					}
				}
				next = ties[0]
				if len(ties) > 1 {
					// Draw from the ascending list, not the encounter order.
					slices.Sort(ties)
					next = ties[src.Intn(len(ties))]
				}
			}
			weights.reset()
			if next != labels[a] {
				labels[a] = next
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}

	p, err := FromAssignment(labels)
	if err != nil {
		panic("community: label propagation produced invalid assignment: " + err.Error())
	}
	return p
}
