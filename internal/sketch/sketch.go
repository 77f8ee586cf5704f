// Package sketch is the reverse-reachable (RR) set estimation layer of the
// LCRB-P solver: a sampling engine that turns protector selection into
// max-coverage over precomputed sketches, following the randomized
// rumor-blocking algorithms of Tong et al. (arXiv:1701.02368) and the
// distributed sketch reuse of arXiv:1711.07412.
//
// The Monte-Carlo estimator in internal/core pays for σ̂(S) with a fresh
// sweep of diffusion simulations per candidate seed set — thousands of
// simulations per solve. This package inverts the cost: a one-time build
// samples N fixed OPOAO realizations, and for every (realization, bridge
// end) pair records the RR set — the protector seeds that would save that
// end in that realization. Afterwards σ̂(S) is a pure set-coverage count,
//
//	σ̂(S) = (baseline-safe pairs + pairs whose RR set intersects S) / N,
//
// and a whole greedy solve costs zero diffusion simulations. Build once,
// answer many solves cheaply. Coverage counting runs on packed bitset
// kernels (see bitset.go): the pairs covered so far are one bit each, the
// node → pair inversion is CSR slices, and σ̂ queries and lazy-greedy
// recounts are word-parallel AND-NOT popcounts with zero allocations per
// query.
//
// N itself is either fixed (Options.Samples) or chosen adaptively
// (Options.Epsilon/Delta): the adaptive build grows the realization pool
// in doubling rounds until a martingale stopping condition certifies the
// estimate to relative error ε with probability 1−δ; see adaptive.go.
//
// # Sampler semantics
//
// Each realization is the fixed OPOAO realization of internal/diffusion:
// node u's activation target at step t is the pure function
// diffusion.FixedChoice(realSeed, u, t, deg), so activation timing is
// label-independent and a single temporal-arrival pass
// (diffusion.OPOAOArrivals) yields the rumor's unopposed arrival hop t_R(e)
// at every bridge end e. A pair (realization, e) with t_R(e) < 0 is
// baseline-safe: the rumor never reaches e within MaxHops, so e survives
// under every protector set. Otherwise the RR set of the pair is computed
// by a backward temporal search from e: node u belongs to it when a
// protector cascade seeded at u alone can reach e by hop t_R(e) (cascade P
// wins simultaneous arrivals), moving only along steps the realization
// actually schedules, never through a rumor seed, and never passing a node
// later than the rumor's own arrival there. Seeding S saves the pair
// exactly when S intersects its RR set, up to the cascade-interleaving
// effects that the paper's Lemma 4 bounds; the estimator's agreement with
// Monte-Carlo σ̂ is enforced empirically by the accuracy tests.
//
// # Determinism contract
//
// Builds follow the PR-3 common-random-numbers discipline: realization
// seeds are drawn once from rng.New(Options.Seed), every RR set is a pure
// function of (realization seed, problem), and workers write into
// per-realization slots that are assembled in realization order. A
// completed build is bit-identical for every Workers value, byte for byte
// through Save. The adaptive build extends the same sequential seed stream
// round by round, so an adaptive sketch that stops at N realizations holds
// exactly the Pairs a fixed Samples=N build would.
package sketch

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// DefaultSamples is the default realization count of a fixed build. RR
// coverage counts average over realizations exactly like Monte-Carlo σ̂
// averages over samples; more realizations tighten the estimate at linear
// build cost and zero per-solve cost.
const DefaultSamples = 128

// Options tunes a sketch build.
type Options struct {
	// Samples is the number of fixed realizations sampled. When positive
	// it overrides the adaptive rule entirely. Zero means: DefaultSamples,
	// unless Epsilon selects the adaptive build. Negative is an error.
	Samples int
	// Seed drives the realization seeds; the same seed reproduces the
	// build bit for bit.
	Seed uint64
	// MaxHops bounds the temporal horizon of every realization. Defaults
	// to core.DefaultGreedyHops, matching the Monte-Carlo estimator.
	MaxHops int
	// Workers bounds the build's concurrency: 0 or 1 means serial,
	// negative means GOMAXPROCS. The built sketch is bit-identical for
	// every value.
	Workers int
	// MaxDuration caps the build's wall clock. 0 means unlimited. A
	// build that exceeds it fails with an error wrapping
	// core.ErrBudgetExhausted — there is no partial sketch: a sketch with
	// fewer realizations than requested would silently change every σ̂ it
	// later serves.
	MaxDuration time.Duration
	// Fault, when non-nil, injects a failure per sampled realization on
	// the fault's schedule, for testing build error paths.
	Fault *diffusion.Fault
	// Footprints records, per realization, the set of nodes whose adjacency
	// the sampler read with effect — the forward-activated set plus every
	// node the backward searches visited or scanned. A realization whose
	// footprint avoids a graph mutation re-samples identically on the
	// mutated graph, which is what lets Repair patch a sketch incrementally
	// (see incremental.go). Costs one sorted []int32 per realization in
	// memory and in the store. Ignored by shard-slice builds: slices rebuild
	// from coordinates on mutation, they never repair.
	Footprints bool

	// Epsilon, when positive with Samples zero, selects the adaptive
	// build: realizations grow in doubling rounds until the martingale
	// stopping rule certifies relative error ε (see adaptive.go). Must be
	// in (0, 1).
	Epsilon float64
	// Delta is the adaptive build's failure probability, in (0, 1).
	// Defaults to DefaultDelta. Ignored on fixed builds.
	Delta float64
	// MaxSamples caps the adaptive build's growth. Defaults to
	// DefaultMaxSamples. Ignored on fixed builds.
	MaxSamples int
}

// Pair is one (realization, bridge end) sample whose fate depends on the
// protector set: the rumor reaches the end at some hop, and Nodes lists
// every node whose lone protector cascade would save it.
type Pair struct {
	// Realization indexes the sampled realization.
	Realization int32 `json:"r"`
	// End indexes the bridge end in Problem.Ends.
	End int32 `json:"e"`
	// Nodes is the RR set, sorted ascending. It always contains the end
	// itself (seeding a protector on the end saves it at hop 0), so full
	// coverage is always achievable.
	Nodes []int32 `json:"nodes"`
}

// Set is a built sketch: everything needed to answer σ̂ queries for one
// problem without running another diffusion simulation.
type Set struct {
	// Samples is the realized number of sampled realizations — the fixed
	// count on fixed builds, the count the stopping rule settled on for
	// adaptive builds. Seed and MaxHops echo the build options.
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	MaxHops int    `json:"maxHops"`
	// NumEnds is |B| of the problem the sketch was built for.
	NumEnds int `json:"numEnds"`
	// Fingerprint binds the sketch to (graph, rumor set, ends, model) and
	// to whichever sizing rule produced it — (seed, samples, hops) for
	// fixed builds, (seed, ε, δ, max samples, hops) for adaptive ones; see
	// Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// BaselinePairs counts the (realization, end) pairs the rumor never
	// reaches within MaxHops — saved under every protector set, the
	// sketch analogue of GreedyResult.BaselineEnds.
	BaselinePairs int `json:"baselinePairs"`
	// Pairs holds the coverable pairs in (realization, end) order.
	Pairs []Pair `json:"pairs"`

	// Epsilon, Delta and MaxSamples record the adaptive build's stopping
	// rule; all zero on fixed builds (and omitted from the store, keeping
	// fixed-build store bytes unchanged across versions). BoundMet reports
	// whether the stopping condition held when growth ended — false means
	// the build ran into MaxSamples first and the ε target is not
	// certified.
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	MaxSamples int     `json:"maxSamples,omitempty"`
	BoundMet   bool    `json:"boundMet,omitempty"`

	// ShardIndex/ShardCount mark a shard slice (see shard.go): this Set
	// holds only the realizations ≡ ShardIndex (mod ShardCount) of the
	// Samples-realization build, and ShardSamples counts them. All zero on
	// a full build (ShardCount == 0 is the discriminant), keeping full-
	// build store bytes unchanged across versions.
	ShardIndex   int `json:"shardIndex,omitempty"`
	ShardCount   int `json:"shardCount,omitempty"`
	ShardSamples int `json:"shardSamples,omitempty"`

	// Footprints[r], present when built with Options.Footprints, is the
	// sorted node set realization r's sampling read with effect — the
	// incremental-repair index of incremental.go. Version, when nonzero,
	// is the dyngraph master version the sketch is current for; static
	// builds leave it zero (and both fields out of the store bytes).
	Footprints [][]int32 `json:"footprints,omitempty"`
	Version    uint64    `json:"graphVersion,omitempty"`

	// index inverts Pairs into CSR rows with bitset kernels (bitset.go).
	// A pure function of Pairs: rebuilt on load, never serialized.
	index *pairIndex
}

// Sigma estimates σ̂(S) from the sketch: the expected number of bridge
// ends left uninfected under protector set S, averaged over the sampled
// realizations. It runs no simulations.
func (s *Set) Sigma(protectors []int32) float64 {
	if s.Samples <= 0 {
		return 0
	}
	return float64(s.BaselinePairs+s.coveredPairs(protectors)) / float64(s.Samples)
}

// coveredPairs counts the pairs whose RR set intersects S: OR each
// protector's pair row into one covered bitset, then popcount.
func (s *Set) coveredPairs(protectors []int32) int {
	if s.index == nil || s.index.numPairs == 0 {
		return 0
	}
	covered := NewBitset(s.index.numPairs)
	for _, u := range protectors {
		if r := s.index.row(u); r >= 0 {
			s.index.commit(r, covered)
		}
	}
	return covered.Count()
}

// Candidates returns every node that appears in at least one RR set,
// sorted ascending — the nodes with any marginal value under the sketch.
func (s *Set) Candidates() []int32 {
	out := make([]int32, len(s.index.nodes))
	copy(out, s.index.nodes)
	return out
}

// buildIndex (re)builds the node → pair inversion.
func (s *Set) buildIndex() {
	s.index = newPairIndex(s.Pairs)
}

// Build samples the sketch for p; see BuildContext.
func Build(p *core.Problem, opts Options) (*Set, error) {
	return BuildContext(context.Background(), p, opts)
}

// BuildContext runs a sketch build under ctx. The context is checked
// before every realization, so cancellation latency is one bounded
// realization. Builds are all-or-nothing: on cancellation, budget expiry
// or a sampling failure the error is returned and no Set — a truncated
// sketch would bias every later estimate.
//
// Sizing: Samples > 0 builds exactly that many realizations. Samples == 0
// with Epsilon > 0 runs the adaptive doubling build of adaptive.go. Both
// zero builds DefaultSamples.
func BuildContext(ctx context.Context, p *core.Problem, opts Options) (*Set, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: build: nil problem")
	}
	if opts.Samples < 0 {
		return nil, fmt.Errorf("sketch: build: samples = %d must not be negative", opts.Samples)
	}
	if math.IsNaN(opts.Epsilon) || opts.Epsilon < 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("sketch: build: epsilon = %v out of (0,1)", opts.Epsilon)
	}
	if math.IsNaN(opts.Delta) || opts.Delta < 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("sketch: build: delta = %v out of (0,1)", opts.Delta)
	}
	if opts.MaxSamples < 0 {
		return nil, fmt.Errorf("sketch: build: max samples = %d must not be negative", opts.MaxSamples)
	}
	adaptive := opts.Samples == 0 && opts.Epsilon > 0
	if adaptive {
		if opts.Delta == 0 {
			opts.Delta = DefaultDelta
		}
		if opts.MaxSamples == 0 {
			opts.MaxSamples = DefaultMaxSamples
		}
	} else {
		if opts.Samples == 0 {
			opts.Samples = DefaultSamples
		}
		// A fixed Samples overrides the adaptive knobs entirely; zero them
		// so the fingerprint and the stored Set record a fixed build.
		opts.Epsilon, opts.Delta, opts.MaxSamples = 0, 0, 0
	}
	if opts.MaxHops == 0 {
		opts.MaxHops = core.DefaultGreedyHops
	}
	if opts.MaxHops < 0 {
		return nil, fmt.Errorf("sketch: build: max hops = %d must not be negative", opts.MaxHops)
	}
	if len(p.Ends) == 0 {
		return nil, core.ErrNoBridgeEnds
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	b, err := newSetBuilder(p, opts, workers)
	if err != nil {
		return nil, err
	}
	if adaptive {
		return b.buildAdaptive(ctx)
	}
	return b.buildFixed(ctx)
}

// setBuilder grows a pool of sampled realizations and assembles Sets from
// prefixes of it. Growth is a pure prefix extension of one sequential seed
// stream, so fixed and adaptive builds that end at the same realization
// count hold identical Pairs, whatever Workers did.
type setBuilder struct {
	p       *core.Problem
	opts    Options
	workers int
	em      *edgeMap
	// seedSrc streams realization seeds; realSeeds[i] is realization i's,
	// drawn sequentially exactly like the greedy's common-random-numbers
	// seeds: a pure function of Options.Seed.
	seedSrc   *rng.Source
	realSeeds []uint64
	// perReal[i] collects realization i's pairs; slots keep assembly
	// order independent of scheduling, so the Set is worker-count
	// invariant. perFoot mirrors it with footprints when opts.Footprints.
	perReal  [][]Pair
	perFoot  [][]int32
	baseline []int
	deadline time.Time
}

func newSetBuilder(p *core.Problem, opts Options, workers int) (*setBuilder, error) {
	em, err := newEdgeMap(p.Graph)
	if err != nil {
		return nil, err
	}
	b := &setBuilder{p: p, opts: opts, workers: workers, em: em, seedSrc: rng.New(opts.Seed)}
	if opts.MaxDuration > 0 {
		b.deadline = time.Now().Add(opts.MaxDuration)
	}
	return b, nil
}

// newScratch returns a per-worker scratch in the builder's footprint mode.
func (b *setBuilder) newScratch() *scratch {
	return newScratch(b.p, b.em, b.opts.MaxHops, b.opts.Footprints)
}

// grow samples realizations [len(perReal), total). All-or-nothing per the
// build contract: on any failure the builder is unusable and the error is
// returned.
func (b *setBuilder) grow(ctx context.Context, total int) error {
	lo := len(b.perReal)
	if total <= lo {
		return nil
	}
	for len(b.realSeeds) < total {
		b.realSeeds = append(b.realSeeds, b.seedSrc.Uint64())
	}
	b.perReal = append(b.perReal, make([][]Pair, total-lo)...)
	b.perFoot = append(b.perFoot, make([][]int32, total-lo)...)
	b.baseline = append(b.baseline, make([]int, total-lo)...)
	errs := make([]error, total-lo)

	sampleOne := func(sc *scratch, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			return fmt.Errorf("%w: sketch build wall-clock budget spent before realization %d",
				core.ErrBudgetExhausted, i)
		}
		if err := b.opts.Fault.Check(); err != nil {
			return fmt.Errorf("sketch: build realization %d: %w", i, err)
		}
		pairs, base, foot, err := sc.sample(b.realSeeds[i], int32(i))
		if err != nil {
			return fmt.Errorf("sketch: build realization %d: %w", i, err)
		}
		b.perReal[i] = pairs
		b.perFoot[i] = foot
		b.baseline[i] = base
		return nil
	}

	workers := b.workers
	if workers > total-lo {
		workers = total - lo
	}
	if workers == 1 {
		sc := b.newScratch()
		for i := lo; i < total; i++ {
			if errs[i-lo] = sampleOne(sc, i); errs[i-lo] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := b.newScratch()
				for i := lo + w; i < total; i += workers {
					if errs[i-lo] = sampleOne(sc, i); errs[i-lo] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	// Surface the failure at the smallest realization index, preferring
	// genuine failures over cancellation fallout (the internal/core
	// convention for worker-pool sweeps).
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if core.IsInterruption(err) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	return cancelErr
}

// assemble builds a Set from the first n sampled realizations, index
// included. The fingerprint is the caller's to stamp.
func (b *setBuilder) assemble(n int) *Set {
	set := &Set{
		Samples: n,
		Seed:    b.opts.Seed,
		MaxHops: b.opts.MaxHops,
		NumEnds: len(b.p.Ends),
	}
	for i := 0; i < n; i++ {
		set.BaselinePairs += b.baseline[i]
		set.Pairs = append(set.Pairs, b.perReal[i]...)
	}
	if b.opts.Footprints {
		set.Footprints = append([][]int32(nil), b.perFoot[:n]...)
	}
	set.buildIndex()
	return set
}

// buildFixed samples exactly opts.Samples realizations.
func (b *setBuilder) buildFixed(ctx context.Context) (*Set, error) {
	if err := b.grow(ctx, b.opts.Samples); err != nil {
		return nil, err
	}
	set := b.assemble(b.opts.Samples)
	set.Fingerprint = Fingerprint(b.p, b.opts)
	return set, nil
}

// edgeMap links the two CSR directions of a graph for the sampler's step
// masks, which are indexed by in-edge slot: inOff[x] is the slot of In(x)[0]
// among all in-edges, and outToIn[k] is the in-edge slot of the k-th
// out-edge in (source, target) order. Built once per build in O(V + E) and
// shared read-only by every worker.
type edgeMap struct {
	inOff   []int32
	outToIn []int32
}

func newEdgeMap(g *graph.Graph) (*edgeMap, error) {
	if g.NumEdges() > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: graph has %d edges, more than the sampler's int32 edge slots", g.NumEdges())
	}
	n := g.NumNodes()
	em := &edgeMap{inOff: make([]int32, n+1), outToIn: make([]int32, g.NumEdges())}
	for x := int32(0); x < n; x++ {
		em.inOff[x+1] = em.inOff[x] + g.InDegree(x)
	}
	// In(x) is ascending, so walking sources in ascending order meets x's
	// in-edges in row order: each takes the next free slot of x's row.
	next := slices.Clone(em.inOff[:n])
	k := 0
	for w := int32(0); w < n; w++ {
		for _, x := range g.Out(w) {
			em.outToIn[k] = next[x]
			next[x]++
			k++
		}
	}
	return em, nil
}

// scratch is the per-worker reusable state of the sampler.
type scratch struct {
	p  *core.Problem
	em *edgeMap
	// masks holds the step schedule of the realization in flight, words
	// uint64s per in-edge: bit s of in-edge w→x (word s/64, bit s%64) is set
	// when the realization has w target x at step s. Step 0 is never
	// scheduled, so bit 0 stays clear.
	masks   []uint64
	words   int
	maxHops int
	// need[v] is the search state of node v, valid when its stamp is cur.
	need []needSlot
	cur  int32
	// buckets[t] queues nodes whose best need is t, processed from high
	// to low so the first pop of a node carries its final (maximum) need.
	buckets [][]int32
	// members marks the nodes the search in flight finalized, one bit per
	// node; the emit scans and clears only the words it touched.
	members []uint64
	// Footprint collection (Options.Footprints): fpSeen[v] == fpCur marks v
	// already in fpOut for the realization in flight; fpOut accumulates the
	// footprint across the forward pass and every backward search.
	fpSeen []int32
	fpCur  int32
	fpOut  []int32
}

// needSlot is one node's backward-search state: best is the latest hop by
// which a protector must activate the node for the current end to be
// saved, encoded as -1 - best once the node is finalized; stamp names the
// search that wrote it. The two share a slot so a relay test loads one
// cache line.
type needSlot struct{ stamp, best int32 }

// newScratch returns a scratch for sampling p's realizations up to maxHops
// hops, collecting footprints when asked. em must be p.Graph's edge map.
func newScratch(p *core.Problem, em *edgeMap, maxHops int, footprints bool) *scratch {
	n := p.Graph.NumNodes()
	words := maxHops/64 + 1 // bits 0..maxHops
	sc := &scratch{
		p:       p,
		em:      em,
		masks:   make([]uint64, len(em.outToIn)*words),
		words:   words,
		maxHops: maxHops,
		need:    make([]needSlot, n),
		members: make([]uint64, n/64+1),
	}
	if footprints {
		sc.fpSeen = make([]int32, n)
	}
	return sc
}

// fpMark adds v to the realization's footprint once.
func (sc *scratch) fpMark(v int32) {
	if sc.fpSeen[v] != sc.fpCur {
		sc.fpSeen[v] = sc.fpCur
		sc.fpOut = append(sc.fpOut, v)
	}
}

// sample computes the pairs of one realization: a forward temporal-arrival
// pass for the rumor clock, the realization's step schedule, then one
// backward RR search per coverable end. When the scratch collects
// footprints, the returned footprint is the sorted set of nodes whose
// adjacency this realization read with effect; otherwise nil.
//
// The footprint contract (what Repair's skip argument needs): re-sampling
// this realization on a graph whose mutations avoid every footprint node
// yields identical pairs. Three read classes make up the set. (1) The
// forward pass: every activated node — only active nodes' out-rows drive
// proposals, so if none of them changed, activation replays step for step.
// (The pass also counts forward-reachable nodes for its early exit, but
// once every reachable node is active no later step can activate anything,
// so the exit changes no arrival — the reachable count stays out of the
// footprint.) (2) Backward searches: every finalized node — its in-row is
// scanned for relays. (3) Every non-rumor in-neighbour considered as a
// relay — its out-degree, out-row and rumor arrival are read. Rumor-seed
// neighbours are skipped before any read, and their seed status is part of
// the problem, not the graph. The step schedule draws every node's steps,
// but a search reads only the entries of considered relays.
func (sc *scratch) sample(realSeed uint64, realIdx int32) ([]Pair, int, []int32, error) {
	p := sc.p
	arrR, err := diffusion.OPOAOArrivals(p.Graph, p.Rumors, realSeed, sc.maxHops)
	if err != nil {
		return nil, 0, nil, err
	}
	if sc.fpSeen != nil {
		sc.fpCur++
		sc.fpOut = sc.fpOut[:0]
		for u, a := range arrR {
			if a >= 0 {
				sc.fpMark(int32(u))
			}
		}
	}
	lastT := int32(0)
	for _, e := range p.Ends {
		lastT = max(lastT, arrR[e])
	}
	if lastT > 0 {
		sc.schedule(realSeed, lastT, arrR)
	}
	var pairs []Pair
	base := 0
	for ei, e := range p.Ends {
		tR := arrR[e]
		if tR < 0 {
			base++ // rumor never arrives: saved under every protector set
			continue
		}
		nodes := sc.rrSet(e, tR, arrR)
		pairs = append(pairs, Pair{Realization: realIdx, End: int32(ei), Nodes: nodes})
	}
	var foot []int32
	if sc.fpSeen != nil {
		foot = slices.Clone(sc.fpOut)
		slices.Sort(foot)
	}
	return pairs, base, foot, nil
}

// schedule fills the step masks with realization realSeed's steps 1..lastT,
// the most any search asks for: n·lastT FixedChoice draws shared by every
// backward search of the realization. Rumor seeds (arrival 0) never relay,
// so their out-edges stay empty.
func (sc *scratch) schedule(realSeed uint64, lastT int32, arrR []int32) {
	g := sc.p.Graph
	clear(sc.masks)
	k := 0
	for w := int32(0); w < g.NumNodes(); w++ {
		deg := g.OutDegree(w)
		if deg > 0 && arrR[w] != 0 {
			slots := sc.em.outToIn[k : k+int(deg)]
			for s := int32(1); s <= lastT; s++ {
				i := int(slots[diffusion.FixedChoice(realSeed, w, s, deg)])*sc.words + int(s>>6)
				sc.masks[i] |= 1 << uint(s&63)
			}
		}
		k += int(deg)
	}
}

// latestStep returns the latest step s ≤ t at which the realization in
// flight has the given in-edge's source target its head, or 0 if none.
func (sc *scratch) latestStep(edge int, t int32) int32 {
	lo := edge * sc.words
	i := lo + int(t>>6)
	m := sc.masks[i] & (uint64(2)<<uint(t&63) - 1)
	for m == 0 {
		if i == lo {
			return 0
		}
		i--
		m = sc.masks[i]
	}
	return int32((i-lo)<<6 + bits.Len64(m) - 1)
}

// rrSet runs the backward temporal search from end e with rumor arrival
// hop tR: it returns, ascending, every node u (rumor seeds excluded) from
// which a lone protector cascade reaches e by hop tR in this realization.
//
// The search propagates "need" values: need(x) is the latest hop by which
// the protector cascade must activate x so the label still reaches e in
// time. need(e) = tR; an in-neighbour w of x can relay at the largest
// scheduled step t ≤ need(x) at which w targets x — one masked
// highest-bit lookup in the step schedule — giving need(w) = t − 1,
// further capped by the rumor's own arrival at w (a node the rumor claims
// first cannot relay the protector). Needs are integers in [0, tR], so a
// bucket queue processed from high to low finalizes each node at its
// maximum need — a Dijkstra over at most tR+1 distinct priorities.
func (sc *scratch) rrSet(e, tR int32, arrR []int32) []int32 {
	g := sc.p.Graph
	sc.cur++
	if int(tR)+1 > len(sc.buckets) {
		sc.buckets = make([][]int32, tR+1)
	}
	buckets := sc.buckets[:tR+1]
	for t := range buckets {
		buckets[t] = buckets[t][:0]
	}
	push := func(v, need int32) {
		sc.need[v] = needSlot{stamp: sc.cur, best: need}
		buckets[need] = append(buckets[need], v)
	}
	// visited is encoded as a negative best value after the first pop.
	push(e, tR)

	count, lo, hi := 0, len(sc.members), -1
	for t := tR; t >= 0; t-- {
		for bi := 0; bi < len(buckets[t]); bi++ {
			x := buckets[t][bi]
			if sc.need[x].best != t { // stale entry: finalized at a higher need
				continue
			}
			sc.need[x].best = -1 - t // mark finalized
			wi := int(x >> 6)
			sc.members[wi] |= 1 << uint(x&63)
			count, lo, hi = count+1, min(lo, wi), max(hi, wi)
			if sc.fpSeen != nil {
				sc.fpMark(x) // finalized: its in-row is scanned below
			}
			if t == 0 {
				continue // relaying to x would need activation before hop 0
			}
			slot := int(sc.em.inOff[x])
			for i, w := range g.In(x) {
				if sc.fpSeen != nil && arrR[w] != 0 {
					sc.fpMark(w) // considered relay: degree/out-row/arrival read
				}
				// The masks are contiguous along x's in-row, so the step
				// lookup comes before any per-w load. Rumor seeds never
				// relay cascade P; their schedule is empty.
				step := sc.latestStep(slot+i, t)
				if step == 0 {
					continue
				}
				cand := step - 1
				if rw := arrR[w]; rw >= 0 && rw < cand {
					cand = rw // the rumor claims w at rw: P must win w first
				}
				if nw := sc.need[w]; nw.stamp == sc.cur && (nw.best < 0 || nw.best >= cand) {
					continue // finalized, or already queued at a need ≥ cand
				}
				push(w, cand)
			}
		}
	}
	out := make([]int32, 0, count)
	for wi := lo; wi <= hi; wi++ {
		for m := sc.members[wi]; m != 0; m &= m - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(m)))
		}
		sc.members[wi] = 0
	}
	return out
}
