// Package lcrb is a Go implementation of "Least Cost Rumor Blocking in
// Social Networks" (Fan, Lu, Wu, Thuraisingham, Ma, Bi — ICDCS 2013).
//
// Two cascades spread simultaneously through a directed social network: a
// rumor R and a protector P, with P winning simultaneous arrivals. Rumors
// start inside one community; the Least Cost Rumor Blocking (LCRB) problem
// asks for a minimum protector seed set that keeps the rumor from infecting
// the community's bridge ends — the first reachable nodes of neighbouring
// communities.
//
// The package is a facade over the paper pipeline:
//
//   - graph construction (internal/graph) and synthetic social networks
//     calibrated to the paper's Enron and Hep datasets (internal/gen)
//   - Louvain community detection (internal/community)
//   - the LCRB problem with its bridge ends (NewProblem)
//   - the Set-Cover-Based Greedy for LCRB-D (SolveSCBG) and the
//     submodular greedy for LCRB-P (SolveGreedy), as lazy max coverage
//     over the RR sets of its own realizations
//   - the RR-set sketch path for LCRB-P: BuildSketches, then
//     SolveGreedyRIS with zero diffusion simulations per solve
//   - simulation under the OPOAO and DOAM models and a Monte-Carlo driver
//     (Simulate, MonteCarlo)
//   - the MaxDegree and Proximity baselines (SelectHeuristic)
//
// The paper's evaluation lives in cmd/lcrbbench and the serving daemon in
// cmd/lcrbd; both use the internal packages directly.
//
// # Quick start
//
//	net, _ := lcrb.GenerateHep(0.1, 42)
//	part := lcrb.DetectCommunities(net.Graph, 1)
//	comm := part.ClosestBySize(80)
//	rumors := part.Members(comm)[:3]
//	prob, _ := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
//	sol, _ := lcrb.SolveSCBG(prob, lcrb.SCBGOptions{})
//	fmt.Println("protectors:", sol.Protectors)
//
// See the runnable programs under examples/.
package lcrb

import (
	"context"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// Re-exported graph types. A Graph is an immutable directed graph over
// dense int32 node identifiers; build one with NewGraphBuilder.
type (
	// Graph is the directed social network representation.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into an immutable Graph.
	GraphBuilder = graph.Builder
)

// Partition assigns every node to a community.
type Partition = community.Partition

// Re-exported problem and solver types.
type (
	// Problem is an LCRB instance with its bridge ends computed.
	Problem = core.Problem
	// SCBGOptions tunes the LCRB-D Set-Cover-Based Greedy solver.
	SCBGOptions = core.SCBGOptions
	// SCBGResult is the SCBG solution.
	SCBGResult = core.SCBGResult
	// GreedyOptions tunes the LCRB-P greedy solver.
	GreedyOptions = core.GreedyOptions
	// GreedyResult is the greedy solution.
	GreedyResult = core.GreedyResult
)

// Re-exported diffusion types.
type (
	// Model is a two-cascade diffusion model.
	Model = diffusion.Model
	// OPOAO is the Opportunistic One-Activate-One model.
	OPOAO = diffusion.OPOAO
	// DOAM is the Deterministic One-Activate-Many model.
	DOAM = diffusion.DOAM
	// SimOptions tunes a simulation run.
	SimOptions = diffusion.Options
	// SimResult is the outcome of one run.
	SimResult = diffusion.Result
	// MonteCarlo averages many runs of a stochastic model.
	MonteCarlo = diffusion.MonteCarlo
	// Aggregate is a Monte-Carlo average.
	Aggregate = diffusion.Aggregate
	// Status is a node's diffusion state.
	Status = diffusion.Status
	// Event is one activation during a simulation.
	Event = diffusion.Event
	// Observer receives activation events (set it on SimOptions).
	Observer = diffusion.Observer
	// Trace records a simulation's events and answers provenance queries.
	Trace = diffusion.Trace
)

// NewTrace returns an empty activation-trace recorder; install its
// Observer on SimOptions to record a simulation.
func NewTrace() *Trace { return diffusion.NewTrace() }

// Node status values.
const (
	// Inactive nodes were reached by neither cascade.
	Inactive = diffusion.Inactive
	// Infected nodes were activated by the rumor cascade.
	Infected = diffusion.Infected
	// Protected nodes were activated by the protector cascade.
	Protected = diffusion.Protected
)

// Network is a generated graph with planted communities.
type Network = gen.Network

// Re-exported heuristic types.
type (
	// Selector ranks candidate protector seeds.
	Selector = heuristic.Selector
	// SelectorContext carries the data a Selector may use.
	SelectorContext = heuristic.Context
	// MaxDegree ranks nodes by decreasing out-degree.
	MaxDegree = heuristic.MaxDegree
	// Proximity ranks the rumor seeds' direct out-neighbours.
	Proximity = heuristic.Proximity
)

// ErrNoBridgeEnds is returned by the solvers when the instance has no
// bridge ends (nothing to protect).
var ErrNoBridgeEnds = core.ErrNoBridgeEnds

// ErrBudgetExhausted is returned (wrapped) by SolveGreedy when
// GreedyOptions.MaxEvaluations or MaxDuration expires; the result then
// carries the best seed set found so far with Partial set. Test with
// errors.Is.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// Re-exported RR-set sketch types: the sampling-based σ̂ estimation layer
// (internal/sketch). A one-time BuildSketches samples fixed OPOAO
// realizations and records, for every (realization, bridge end) pair, the
// reverse-reachable set of protector seeds that would save it; afterwards
// SolveGreedyRIS selects protectors by pure max coverage — zero diffusion
// simulations per solve.
type (
	// SketchOptions tunes a sketch build.
	SketchOptions = sketch.Options
	// SketchSet is a built sketch: an σ̂ oracle for one problem.
	SketchSet = sketch.Set
	// SketchSolveOptions tunes the RIS max-coverage selector.
	SketchSolveOptions = sketch.SolveOptions
)

// BuildSketches samples the RR-set sketch of p over Options.Samples fixed
// OPOAO realizations (default 128). The build is deterministic per seed
// and bit-identical for every worker count.
func BuildSketches(p *Problem, opts SketchOptions) (*SketchSet, error) {
	return sketch.Build(p, opts)
}

// SolveGreedyRIS solves LCRB-P over a prebuilt sketch by lazy-greedy max
// coverage, returning the same GreedyResult shape as SolveGreedy with
// sketch-based σ̂ — and running zero diffusion simulations.
func SolveGreedyRIS(p *Problem, set *SketchSet, opts SketchSolveOptions) (*GreedyResult, error) {
	return sketch.SolveGreedyRIS(p, set, opts)
}

// NewGraphBuilder returns a builder for a graph with numNodes nodes; the
// node space grows automatically as edges are added.
func NewGraphBuilder(numNodes int32) *GraphBuilder { return graph.NewBuilder(numNodes) }

// GenerateEnron generates a network calibrated to the paper's Enron email
// dataset (36 692 nodes, average degree 10.0 at scale 1.0).
func GenerateEnron(scale float64, seed uint64) (*Network, error) { return gen.Enron(scale, seed) }

// GenerateHep generates a network calibrated to the paper's Hep
// collaboration dataset (15 233 nodes, average degree 7.73 at scale 1.0).
func GenerateHep(scale float64, seed uint64) (*Network, error) { return gen.Hep(scale, seed) }

// DetectCommunities partitions g with the Louvain method (the detector the
// paper uses), deterministically for a given seed.
func DetectCommunities(g *Graph, seed uint64) *Partition {
	return community.Louvain(g, community.LouvainOptions{Seed: seed})
}

// Modularity scores a partition of g (higher is better).
func Modularity(g *Graph, p *Partition) float64 { return community.Modularity(g, p) }

// NewProblem builds an LCRB instance: it validates the inputs and computes
// the bridge ends of the rumor community.
func NewProblem(g *Graph, assign []int32, rumorCommunity int32, rumors []int32) (*Problem, error) {
	return core.NewProblem(g, assign, rumorCommunity, rumors)
}

// SolveSCBG runs the Set-Cover-Based Greedy algorithm for LCRB-D (protect
// every bridge end under the DOAM model). O(ln n)-approximate, which is
// optimal unless P = NP.
func SolveSCBG(p *Problem, opts SCBGOptions) (*SCBGResult, error) {
	return core.SCBG(p, opts)
}

// SolveGreedy runs the submodular greedy algorithm for LCRB-P (protect an
// α fraction of the bridge ends under the OPOAO model). (1-1/e)-approximate
// with respect to σ̂ over its GreedyOptions.Samples fixed realizations,
// which it counts exactly as RR-set coverage. When a GreedyOptions budget
// expires mid-selection it returns the best-so-far seed set with
// GreedyResult.Partial set, alongside an error wrapping
// ErrBudgetExhausted.
func SolveGreedy(p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	return core.Greedy(p, opts)
}

// Simulate runs one two-cascade diffusion with the given model. seed drives
// stochastic models; deterministic models ignore it.
func Simulate(m Model, g *Graph, rumors, protectors []int32, seed uint64, opts SimOptions) (*SimResult, error) {
	return diffusion.RunModelContext(context.Background(), m, g, rumors, protectors, rng.New(seed), opts)
}

// SelectHeuristic returns the top k protector seeds of a baseline selector.
func SelectHeuristic(sel Selector, sctx SelectorContext, k int, seed uint64) ([]int32, error) {
	return heuristic.Select(sel, sctx, k, rng.New(seed))
}
