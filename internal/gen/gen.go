// Package gen generates synthetic networks.
//
// The paper evaluates on two real datasets (the Enron email network and the
// arXiv High-Energy-Physics collaboration network) that are not available
// offline. This package provides their substitutes: a community-structured
// social-network generator with heavy-tailed degrees, calibrated "enron" and
// "hep" profiles matching the papers' node counts, edge counts and density,
// plus the classic Erdős–Rényi and Watts–Strogatz models used for unit
// tests.
package gen

import (
	"fmt"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// ErdosRenyi returns a G(n, m)-style random simple digraph with n nodes and
// approximately m directed edges (duplicates and self-loops are dropped, so
// the realized count can be slightly lower).
func ErdosRenyi(n int32, m int, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi: n = %d must be positive", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi: m = %d must be non-negative", m)
	}
	src := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(src.Int32n(n), src.Int32n(n))
	}
	return b.Build()
}

// WattsStrogatz returns a symmetric small-world graph: a ring lattice where
// every node is connected to its k nearest neighbours on each side, with
// each edge rewired to a random target with probability beta. Edges are
// added in both directions.
func WattsStrogatz(n, k int32, beta float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: WattsStrogatz: n = %d must be positive", n)
	}
	if k <= 0 || 2*k >= n {
		return nil, fmt.Errorf("gen: WattsStrogatz: need 0 < k < n/2, got k = %d, n = %d", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz: beta = %v out of [0,1]", beta)
	}
	src := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for d := int32(1); d <= k; d++ {
			v := (u + d) % n
			if src.Bool(beta) {
				v = src.Int32n(n)
				if v == u {
					v = (u + d) % n
				}
			}
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	return b.Build()
}
