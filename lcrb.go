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
// The package is a facade over the implementation packages:
//
//   - graph construction, I/O and traversal (internal/graph)
//   - synthetic social networks calibrated to the paper's Enron and Hep
//     datasets (internal/gen)
//   - Louvain and label-propagation community detection (internal/community)
//   - the OPOAO and DOAM two-cascade diffusion models plus competitive
//     IC/LT extensions and a Monte-Carlo driver (internal/diffusion)
//   - bridge-end discovery via rumor forward search trees (internal/bridge)
//   - the LCRB-P submodular greedy (CELF-accelerated) and the LCRB-D
//     Set-Cover-Based Greedy solvers (internal/core, internal/setcover)
//   - the RR-set sketch engine: sampling-based σ̂ estimation with a
//     persistent sketch store for fast serving (internal/sketch)
//   - the MaxDegree/Proximity/Random/NoBlocking baselines (internal/heuristic)
//   - the paper's full evaluation: Figures 4-9 and Table I (internal/experiment)
//   - resilience primitives for serving solves: retry, circuit breaker,
//     admission gate, hedging (internal/resilience, served by cmd/lcrbd)
//   - the sharded scatter-gather RIS solve tier: realization-partitioned
//     sketch slices solved by a fault-tolerant coordinator, bit-identical
//     to the single store when all shards survive (internal/shardsolve)
//   - dynamic graphs: a versioned mutation log over a mutable master with
//     immutable copy-on-write snapshots, plus incremental RR-sketch repair
//     that re-draws only delta-touched realizations and is bit-identical
//     to a full rebuild (internal/dyngraph, RepairSketches; served live by
//     cmd/lcrbd -dynamic behind POST /v1/graph/delta)
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
// See the runnable programs under examples/ and the experiment harness in
// cmd/lcrbbench.
package lcrb

import (
	"context"
	"io"
	"net/http"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/dyngraph"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/heuristic"
	"lcrb/internal/resilience"
	"lcrb/internal/rng"
	"lcrb/internal/shardsolve"
	"lcrb/internal/sketch"
)

// Re-exported graph types. A Graph is an immutable directed graph over
// dense int32 node identifiers; build one with NewGraphBuilder, FromEdges
// or ReadEdgeList.
type (
	// Graph is the directed social network representation.
	Graph = graph.Graph
	// Edge is a directed edge.
	Edge = graph.Edge
	// GraphBuilder accumulates edges into an immutable Graph.
	GraphBuilder = graph.Builder
	// EdgeList is a parsed external edge-list file.
	EdgeList = graph.EdgeList
)

// Re-exported community-detection types.
type (
	// Partition assigns every node to a community.
	Partition = community.Partition
	// LouvainOptions tunes Louvain community detection.
	LouvainOptions = community.LouvainOptions
)

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
	// CompetitiveIC is the two-cascade Independent Cascade extension.
	CompetitiveIC = diffusion.CompetitiveIC
	// CompetitiveLT is the two-cascade Linear Threshold extension.
	CompetitiveLT = diffusion.CompetitiveLT
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
	// Realization simulates both cascades under fixed common random
	// numbers; plug one into GreedyOptions.Realization to solve LCRB-P
	// under a different diffusion model.
	Realization = diffusion.Realization
)

// ICRealization returns the fixed-realization engine of the competitive
// Independent Cascade model with edge probability p, for use with
// GreedyOptions.Realization.
func ICRealization(p float64) Realization { return diffusion.ICRealization(p) }

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

// Re-exported generator types.
type (
	// Network is a generated graph with planted communities.
	Network = gen.Network
	// NetworkConfig parametrizes the community-network generator.
	NetworkConfig = gen.CommunityConfig
)

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
	// RandomSelector ranks all non-rumor nodes randomly.
	RandomSelector = heuristic.Random
	// NoBlocking selects nothing (the reference line).
	NoBlocking = heuristic.NoBlocking
	// PageRankSelector ranks nodes by decreasing PageRank (extension
	// baseline).
	PageRankSelector = heuristic.PageRank
	// DegreeDiscountSelector is the DegreeDiscount heuristic of Chen et
	// al. (extension baseline).
	DegreeDiscountSelector = heuristic.DegreeDiscount
	// GVS is the greedy viral stopper (simulation-driven extension
	// baseline); it has its own Select method rather than a Rank.
	GVS = heuristic.GVS
)

// ErrNoBridgeEnds is returned by the solvers when the instance has no
// bridge ends (nothing to protect).
var ErrNoBridgeEnds = core.ErrNoBridgeEnds

// Robustness sentinels; test with errors.Is.
var (
	// ErrBudgetExhausted is returned (wrapped) by SolveGreedyContext when
	// GreedyOptions.MaxEvaluations or MaxDuration expires; the result then
	// carries the best seed set found so far with Partial set.
	ErrBudgetExhausted = core.ErrBudgetExhausted
	// ErrSimPanic is returned (wrapped) by the Monte-Carlo driver when a
	// model panics inside a worker; the panic is contained, not propagated.
	ErrSimPanic = diffusion.ErrPanic
	// ErrFaultInjected is the error produced by a SimFault-wrapped model or
	// realization, for tests that exercise failure paths.
	ErrFaultInjected = diffusion.ErrInjected
)

// SimFault is a deterministic fault-injection harness: wrap a Model or
// Realization with it to fail or panic on the Nth invocation when testing
// cancellation and panic-containment behaviour.
type SimFault = diffusion.Fault

// Re-exported resilience primitives: small, dependency-free building
// blocks for serving LCRB solves (retry with deterministic jitter, a
// three-state circuit breaker, a weighted admission gate with load
// shedding, hedged requests, and the double-Ctrl-C interrupt handler).
// The cmd/lcrbd daemon composes all of them; they are exported for
// embedders building their own serving layer.
type (
	// Retry runs an operation with exponential backoff and deterministic
	// jitter (seeded, reproducible).
	Retry = resilience.Retry
	// Breaker is a three-state circuit breaker (closed, open, half-open).
	Breaker = resilience.Breaker
	// BreakerOptions tunes a Breaker; pass to NewBreaker.
	BreakerOptions = resilience.BreakerOptions
	// BreakerState is a Breaker's state.
	BreakerState = resilience.BreakerState
	// Gate is a weighted admission semaphore with a bounded wait queue
	// and load shedding.
	Gate = resilience.Gate
	// Hedge races a primary attempt against delayed backups; the first
	// success wins and the losers are canceled.
	Hedge = resilience.Hedge
	// Interrupt is the double-Ctrl-C handler: first signal drains,
	// second force-quits.
	Interrupt = resilience.Interrupt
)

// Resilience sentinels; test with errors.Is.
var (
	// ErrCircuitOpen is returned (wrapped) by a Breaker that is failing
	// fast.
	ErrCircuitOpen = resilience.ErrOpen
	// ErrShed is returned (wrapped) by a Gate that refused admission
	// because the in-flight and waiting slots are full.
	ErrShed = resilience.ErrShed
)

// NewBreaker returns a circuit breaker; the zero BreakerOptions give a
// breaker that opens after 5 consecutive failures and probes after 1s.
func NewBreaker(opts BreakerOptions) *Breaker { return resilience.NewBreaker(opts) }

// NewGate returns an admission gate admitting capacity units of work with
// at most maxWaiting queued acquirers (0 sheds immediately when full,
// negative queues without bound).
func NewGate(capacity int64, maxWaiting int) *Gate { return resilience.NewGate(capacity, maxWaiting) }

// Re-exported RR-set sketch types: the sampling-based σ̂ estimation layer
// (internal/sketch). A one-time BuildSketches samples fixed OPOAO
// realizations and records, for every (realization, bridge end) pair, the
// reverse-reachable set of protector seeds that would save it; afterwards
// SolveGreedyRIS selects protectors by pure max coverage — zero diffusion
// simulations per solve. Sketches persist via SaveSketches/LoadSketches
// with fingerprint validation, so a serving process can answer solves from
// a warm store (cmd/lcrbd's fast rung).
type (
	// SketchOptions tunes a sketch build.
	SketchOptions = sketch.Options
	// SketchSet is a built (or loaded) sketch: an σ̂ oracle for one
	// problem.
	SketchSet = sketch.Set
	// SketchPair is one (realization, bridge end) sample with its RR set.
	SketchPair = sketch.Pair
	// SketchSolveOptions tunes the RIS max-coverage selector.
	SketchSolveOptions = sketch.SolveOptions
)

// ErrSketchStale is returned (wrapped) when a stored sketch's fingerprint
// does not match the problem it is asked to serve; test with errors.Is.
// Stale sketches are rejected, never silently served.
var ErrSketchStale = sketch.ErrStale

// BuildSketches samples the RR-set sketch of p: either Options.Samples
// fixed OPOAO realizations, or — with Options.Epsilon set — an adaptively
// sized pool grown in doubling rounds until a martingale stopping rule
// certifies relative error ε. Both modes are deterministic per seed and
// bit-identical for every worker count.
func BuildSketches(p *Problem, opts SketchOptions) (*SketchSet, error) {
	return BuildSketchesContext(context.Background(), p, opts)
}

// BuildSketchesContext is BuildSketches with cancellation and wall-clock
// budget support. Builds are all-or-nothing: an interrupted build returns
// no sketch rather than a silently biased one.
func BuildSketchesContext(ctx context.Context, p *Problem, opts SketchOptions) (*SketchSet, error) {
	return sketch.BuildContext(ctx, p, opts)
}

// SolveGreedyRIS solves LCRB-P over a prebuilt sketch by lazy-greedy max
// coverage, returning the same GreedyResult shape as SolveGreedy with
// sketch-based σ̂ — and running zero diffusion simulations.
func SolveGreedyRIS(p *Problem, set *SketchSet, opts SketchSolveOptions) (*GreedyResult, error) {
	return SolveGreedyRISContext(context.Background(), p, set, opts)
}

// SolveGreedyRISContext is SolveGreedyRIS with cancellation support; on
// interruption the best-so-far seed set is returned with Partial set.
func SolveGreedyRISContext(ctx context.Context, p *Problem, set *SketchSet, opts SketchSolveOptions) (*GreedyResult, error) {
	return sketch.SolveGreedyRISContext(ctx, p, set, opts)
}

// SaveSketches writes a sketch atomically and durably to path (the
// internal/checkpoint write discipline).
func SaveSketches(path string, s *SketchSet) error { return sketch.Save(path, s) }

// LoadSketches reads a sketch from path, rejecting version or fingerprint
// mismatches with an error wrapping ErrSketchStale. Compute the expected
// fingerprint with SketchFingerprint.
func LoadSketches(path, fingerprint string) (*SketchSet, error) {
	return sketch.Load(path, fingerprint)
}

// SketchFingerprint binds a sketch to the problem's graph, rumor set,
// bridge ends and the build options; stored sketches whose fingerprint has
// drifted are stale.
func SketchFingerprint(p *Problem, opts SketchOptions) string {
	return sketch.Fingerprint(p, opts)
}

// Re-exported dynamic-graph types (internal/dyngraph). A GraphMaster is
// the single mutable copy of an evolving network: ApplyDelta validates a
// batched mutation against the current version (optimistic concurrency),
// advances the monotonic version counter, and records a dirty-node summary
// in the mutation log; Snapshot returns an immutable CSR graph any number
// of solves can share while the master keeps moving.
type (
	// GraphMaster is the mutable, versioned master copy of a graph.
	GraphMaster = dyngraph.Master
	// GraphDelta is one batched mutation: node additions/removals and
	// edge additions/removals applied atomically at a base version.
	GraphDelta = dyngraph.Delta
	// GraphSnapshot is an immutable graph at a version.
	GraphSnapshot = dyngraph.Snapshot
	// GraphDeltaSummary reports what one applied delta actually changed,
	// dirty nodes included.
	GraphDeltaSummary = dyngraph.Summary
	// GraphStreamDelta is one timestamped batch of a recorded mutation
	// stream (JSONL via WriteDeltaStream/ReadDeltaStream).
	GraphStreamDelta = dyngraph.StreamDelta
	// GraphStreamConfig tunes GenerateDeltaStream.
	GraphStreamConfig = dyngraph.StreamConfig
	// SketchRepairStats reports what an incremental repair did: kept vs
	// re-drawn realizations, end-set changes, full-rebuild fallbacks.
	SketchRepairStats = sketch.RepairStats
)

// Dynamic-graph sentinels; test with errors.Is.
var (
	// ErrGraphVersionConflict is returned (wrapped) by ApplyDelta when the
	// delta's base version is not the master's current version.
	ErrGraphVersionConflict = dyngraph.ErrVersionConflict
	// ErrGraphInvalidDelta is returned (wrapped) by ApplyDelta when the
	// delta references nodes out of range or otherwise fails validation;
	// the master is left untouched.
	ErrGraphInvalidDelta = dyngraph.ErrInvalidDelta
	// ErrSketchNoFootprints is returned by RepairSketches when the set was
	// built without SketchOptions.Footprints and cannot repair
	// incrementally.
	ErrSketchNoFootprints = sketch.ErrNoFootprints
)

// NewGraphMaster returns a mutable master seeded from g at version 1.
func NewGraphMaster(g *Graph) (*GraphMaster, error) { return dyngraph.NewMaster(g) }

// GenerateDeltaStream draws a deterministic stream of valid mutation
// batches against g — the replayable workload for dynamic-graph tests and
// the cmd/lcrbgen -deltas output.
func GenerateDeltaStream(g *Graph, batches int, seed uint64, cfg GraphStreamConfig) ([]GraphStreamDelta, error) {
	return dyngraph.GenerateStream(g, batches, seed, cfg)
}

// WriteDeltaStream writes a mutation stream as JSONL, one batch per line.
func WriteDeltaStream(w io.Writer, stream []GraphStreamDelta) error {
	return dyngraph.WriteStream(w, stream)
}

// ReadDeltaStream parses a JSONL mutation stream.
func ReadDeltaStream(r io.Reader) ([]GraphStreamDelta, error) { return dyngraph.ReadStream(r) }

// RepairSketches incrementally rebinds a footprint-carrying sketch from
// oldP to newP after a graph delta whose dirty nodes are given: only
// realizations whose footprint intersects the dirty set are re-drawn (from
// their original seeds), the rest are kept verbatim, and the result is
// bit-for-bit identical to BuildSketches on newP — stamped with version.
// When the delta changed the bridge-end set the repair falls back to a
// full fixed-size rebuild (reported in SketchRepairStats.FullRebuild).
func RepairSketches(oldP, newP *Problem, set *SketchSet, dirty []int32, version uint64, workers int) (*SketchSet, *SketchRepairStats, error) {
	return RepairSketchesContext(context.Background(), oldP, newP, set, dirty, version, workers)
}

// RepairSketchesContext is RepairSketches with cancellation support;
// repairs are all-or-nothing.
func RepairSketchesContext(ctx context.Context, oldP, newP *Problem, set *SketchSet, dirty []int32, version uint64, workers int) (*SketchSet, *SketchRepairStats, error) {
	return sketch.RepairContext(ctx, oldP, newP, set, dirty, version, workers)
}

// LoadSketchesVersioned is LoadSketches plus a graph-version binding: a
// stored sketch whose fingerprint matches but whose Version trails the
// expected one is rejected with an error wrapping ErrSketchStale naming
// both versions. Serving layers use it so a snapshot swap can never
// silently serve a sketch of the previous graph version.
func LoadSketchesVersioned(path, fingerprint string, version uint64) (*SketchSet, error) {
	return sketch.LoadVersioned(path, fingerprint, version)
}

// Re-exported sharded scatter-gather solve types (internal/shardsolve).
// BuildSketchShard builds shard index's realization-partitioned slice of
// the sketch; a ShardCoordinator runs the lazy-greedy max-coverage solve
// across slices held by local or remote hosts, surviving shard death,
// stragglers and restarts. With every shard live the answer is
// bit-identical to SolveGreedyRIS over the single store; after shard loss
// it is an honestly-tagged estimate from the survivors.
type (
	// ShardCoordinator scatter-gathers a greedy RIS solve across shard
	// endpoints; set Transport and Shards, then call SolveContext.
	ShardCoordinator = shardsolve.Coordinator
	// ShardSpec parametrizes one sharded solve (alpha, budget,
	// certificate epsilon).
	ShardSpec = shardsolve.Spec
	// ShardResult is the sharded solve's answer with its loss census.
	ShardResult = shardsolve.Result
	// ShardsInfo is the shard census of an answer: total, live, and
	// realizations lost with dead shards.
	ShardsInfo = shardsolve.ShardsInfo
	// ShardHost serves one or more sketch slices to coordinators over any
	// transport; construct with NewShardHost.
	ShardHost = shardsolve.Host
	// ShardTransport carries coordinator requests to shard endpoints;
	// NewShardTransport (in-process) and NewShardHTTPTransport implement
	// it.
	ShardTransport = shardsolve.Transport
	// ShardSliceProvider resolves (index, count) coordinates to a sketch
	// slice on a host, enabling cold spares that rebuild on demand.
	ShardSliceProvider = shardsolve.SliceProvider
)

// DegradedShardLoss tags a ShardResult whose accuracy was downgraded by
// dead shards (Result.Degraded).
const DegradedShardLoss = shardsolve.DegradedShardLoss

// BuildSketchShard builds shard index's slice (of count) of the RR-set
// sketch: the realizations r with r ≡ index (mod count), drawn from the
// same common-random-number seed stream as BuildSketches, so the union of
// all slices is bit-for-bit the single-store sketch. Requires fixed
// sizing (Options.Samples); adaptive builds cannot shard.
func BuildSketchShard(p *Problem, opts SketchOptions, index, count int) (*SketchSet, error) {
	return sketch.BuildShardContext(context.Background(), p, opts, index, count)
}

// NewShardHost returns a shard host serving the slices resolved by
// provider. StaticShardSlices is the common provider for prebuilt slices.
func NewShardHost(provider ShardSliceProvider) *ShardHost { return shardsolve.NewHost(provider) }

// StaticShardSlices returns a provider serving exactly the given prebuilt
// slices, matched by their (index, count) coordinates.
func StaticShardSlices(sets ...*SketchSet) ShardSliceProvider {
	return shardsolve.StaticProvider(sets...)
}

// NewShardTransport returns the in-process transport over the given
// hosts, endpoint i serving hosts[i]. Chaos injection lives on the
// internal package; embedders wanting fault scripts should wrap the
// transport themselves.
func NewShardTransport(hosts []*ShardHost) ShardTransport { return shardsolve.NewInProc(hosts, nil) }

// NewShardHTTPTransport returns a transport POSTing shard requests to
// urls[i] + the shard worker path (lcrbd -shard-of workers serve it). A
// nil client means http.DefaultClient.
func NewShardHTTPTransport(urls []string, client *http.Client) ShardTransport {
	return shardsolve.NewHTTPTransport(urls, client)
}

// NewShardHTTPHandler returns the http.Handler a shard worker mounts to
// serve its host over HTTP.
func NewShardHTTPHandler(host *ShardHost) http.Handler { return shardsolve.NewHTTPHandler(host) }

// IsSolverInterruption reports whether err is an expected solver
// interruption — cancellation, deadline, or budget expiry — rather than a
// failure; serving layers branch on it to decide between degrading and
// erroring.
func IsSolverInterruption(err error) bool { return core.IsInterruption(err) }

// NewGraphBuilder returns a builder for a graph with numNodes nodes; the
// node space grows automatically as edges are added.
func NewGraphBuilder(numNodes int32) *GraphBuilder { return graph.NewBuilder(numNodes) }

// FromEdges builds a graph from an edge list, dropping self-loops and
// duplicates.
func FromEdges(numNodes int32, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numNodes, edges)
}

// ReadEdgeList parses a SNAP-style whitespace-separated edge list,
// remapping sparse external identifiers to dense ones.
func ReadEdgeList(r io.Reader) (*EdgeList, error) { return graph.ReadEdgeList(r) }

// ReadEdgeListFile is ReadEdgeList over a file.
func ReadEdgeListFile(path string) (*EdgeList, error) { return graph.ReadEdgeListFile(path) }

// WriteEdgeList writes a graph as a dense edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GenerateNetwork generates a community-structured social network.
func GenerateNetwork(cfg NetworkConfig) (*Network, error) { return gen.Community(cfg) }

// GenerateEnron generates a network calibrated to the paper's Enron email
// dataset (36 692 nodes, average degree 10.0 at scale 1.0).
func GenerateEnron(scale float64, seed uint64) (*Network, error) { return gen.Enron(scale, seed) }

// GenerateHep generates a network calibrated to the paper's Hep
// collaboration dataset (15 233 nodes, average degree 7.73 at scale 1.0).
func GenerateHep(scale float64, seed uint64) (*Network, error) { return gen.Hep(scale, seed) }

// Rewire returns a degree-preserving randomization of g (double-edge
// swaps), the null model that destroys community structure while keeping
// every node's degrees.
func Rewire(g *Graph, swaps int, seed uint64) (*Graph, error) { return gen.Rewire(g, swaps, seed) }

// DetectCommunities partitions g with the Louvain method (the detector the
// paper uses), deterministically for a given seed.
func DetectCommunities(g *Graph, seed uint64) *Partition {
	return community.Louvain(g, community.LouvainOptions{Seed: seed})
}

// DetectCommunitiesLabelProp partitions g with label propagation, the
// cheaper alternative front end.
func DetectCommunitiesLabelProp(g *Graph, seed uint64) *Partition {
	return community.LabelProp(g, community.LabelPropOptions{Seed: seed})
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
	return SolveSCBGContext(context.Background(), p, opts)
}

// SolveSCBGContext is SolveSCBG with cancellation support.
func SolveSCBGContext(ctx context.Context, p *Problem, opts SCBGOptions) (*SCBGResult, error) {
	return core.SCBGContext(ctx, p, opts)
}

// SolveGreedy runs the submodular greedy algorithm for LCRB-P (protect an
// α fraction of the bridge ends under the OPOAO model). (1-1/e)-approximate
// with respect to the Monte-Carlo σ̂ estimate.
func SolveGreedy(p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	return SolveGreedyContext(context.Background(), p, opts)
}

// SolveGreedyContext is SolveGreedy with cancellation, deadline, and
// evaluation-budget support. When the context or a GreedyOptions budget
// expires mid-selection it returns the best-so-far seed set with
// GreedyResult.Partial set, alongside the interruption error.
func SolveGreedyContext(ctx context.Context, p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	return core.GreedyContext(ctx, p, opts)
}

// Simulate runs one two-cascade diffusion with the given model. seed drives
// stochastic models; deterministic models ignore it.
func Simulate(m Model, g *Graph, rumors, protectors []int32, seed uint64, opts SimOptions) (*SimResult, error) {
	return SimulateContext(context.Background(), m, g, rumors, protectors, seed, opts)
}

// SimulateContext is Simulate with per-hop cancellation checks on models
// that support them.
func SimulateContext(ctx context.Context, m Model, g *Graph, rumors, protectors []int32, seed uint64, opts SimOptions) (*SimResult, error) {
	return diffusion.RunModelContext(ctx, m, g, rumors, protectors, rng.New(seed), opts)
}

// SelectHeuristic returns the top k protector seeds of a baseline selector.
func SelectHeuristic(sel Selector, sctx SelectorContext, k int, seed uint64) ([]int32, error) {
	return SelectHeuristicContext(context.Background(), sel, sctx, k, seed)
}

// SelectHeuristicContext is SelectHeuristic with cancellation support.
func SelectHeuristicContext(ctx context.Context, sel Selector, sctx SelectorContext, k int, seed uint64) ([]int32, error) {
	return heuristic.SelectContext(ctx, sel, sctx, k, rng.New(seed))
}

// PageRank computes the PageRank vector of g with the default damping
// factor (0.85).
func PageRank(g *Graph) []float64 {
	return graph.PageRank(g, graph.PageRankOptions{})
}

// StronglyConnectedComponents assigns every node a strongly connected
// component identifier (Tarjan's algorithm) and returns the component
// count. Identifiers are in reverse topological order of the condensation.
func StronglyConnectedComponents(g *Graph) (comp []int32, count int32) {
	return graph.StronglyConnectedComponents(g)
}
