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
// N is fixed by Options.Samples (default DefaultSamples), as the paper
// fixes the number of OPOAO samples behind σ̂.
//
// # Sampler semantics
//
// Each realization is the fixed OPOAO realization of internal/diffusion:
// node u's activation target at step t is the pure function
// diffusion.FixedChoice(realSeed, u, t, deg), so activation timing is
// label-independent and one forward pass over the rumor seeds yields the
// rumor's unopposed arrival hop t_R(e) at every bridge end e. A pair
// (realization, e) with t_R(e) < 0 is baseline-safe: the rumor never
// reaches e within MaxHops, so e survives under every protector set.
// Otherwise the pair's RR set holds every node u (rumor seeds excluded)
// from which a lone protector cascade seeded at u reaches e by hop t_R(e)
// (cascade P wins simultaneous arrivals), moving only along steps the
// realization actually schedules and never through a node the rumor
// claimed first. The forward pass writes each step's targets into a
// step-target table, and a level sweep over that table computes the RR
// sets of 64 ends at once, one bit per end (see scratch.sweep). Seeding S
// saves the pair exactly when S intersects its RR set, up to the
// cascade-interleaving effects that the paper's Lemma 4 bounds; the
// estimator's agreement with Monte-Carlo σ̂ is enforced empirically by the
// accuracy tests.
//
// # Determinism contract
//
// Builds follow the PR-3 common-random-numbers discipline: realization
// seeds are drawn once from rng.New(Options.Seed), every RR set is a pure
// function of (realization seed, problem), and workers write into
// per-realization slots that are assembled in realization order. A
// completed build is bit-identical for every Workers value, byte for byte
// through Save.
package sketch

import (
	"cmp"
	"context"
	"fmt"
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
	// Samples is the number of fixed realizations sampled. Zero means
	// DefaultSamples; negative is an error.
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
	// the sampler read with effect: the forward-activated set, every RR-set
	// member, and the relays that could reach them (see scratch.sample). A
	// realization whose footprint avoids a graph mutation re-samples
	// identically on the mutated graph, which is what lets Repair patch a
	// sketch incrementally (see incremental.go). Costs one sorted []int32
	// per realization in memory and in the store. Ignored by shard-slice
	// builds: slices rebuild from coordinates on mutation, they never
	// repair.
	Footprints bool
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
	// Samples is the number of sampled realizations. Seed and MaxHops
	// echo the build options.
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	MaxHops int    `json:"maxHops"`
	// NumEnds is |B| of the problem the sketch was built for.
	NumEnds int `json:"numEnds"`
	// Fingerprint binds the sketch to (graph, rumor set, ends, model) and
	// to (seed, samples, hops); see Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// BaselinePairs counts the (realization, end) pairs the rumor never
	// reaches within MaxHops — saved under every protector set, the
	// sketch analogue of GreedyResult.BaselineEnds.
	BaselinePairs int `json:"baselinePairs"`
	// Pairs holds the coverable pairs in (realization, end) order.
	Pairs []Pair `json:"pairs"`

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

// buildIndex (re)builds the node → pair inversion on up to workers
// goroutines; the index is identical for every value.
func (s *Set) buildIndex(workers int) {
	s.index = newPairIndex(s.Pairs, workers)
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
func BuildContext(ctx context.Context, p *core.Problem, opts Options) (*Set, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: build: nil problem")
	}
	if opts.Samples < 0 {
		return nil, fmt.Errorf("sketch: build: samples = %d must not be negative", opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = DefaultSamples
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

	return newSetBuilder(p, opts, workers).buildFixed(ctx)
}

// setBuilder grows a pool of sampled realizations and assembles Sets from
// prefixes of it. Growth is a pure prefix extension of one sequential seed
// stream, so builds that end at the same realization count hold identical
// Pairs, whatever Workers did.
type setBuilder struct {
	p       *core.Problem
	opts    Options
	workers int
	smp     *sampler
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

func newSetBuilder(p *core.Problem, opts Options, workers int) *setBuilder {
	b := &setBuilder{p: p, opts: opts, workers: workers, seedSrc: rng.New(opts.Seed),
		smp: newSampler(p, opts.MaxHops, opts.Footprints)}
	if opts.MaxDuration > 0 {
		b.deadline = time.Now().Add(opts.MaxDuration)
	}
	return b
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
		pairs, base, foot := sc.sample(b.realSeeds[i], int32(i))
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
		sc := b.smp.newScratch()
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
				sc := b.smp.newScratch()
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
	set.buildIndex(b.workers)
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

// sampler is the read-only half of RR-set sampling, built once per build
// and shared by every worker: the problem, the horizon, and how far the
// rumor can spread at all, which depends on the problem alone.
type sampler struct {
	p          *core.Problem
	maxHops    int
	footprints bool
	// reach counts the nodes forward-reachable from the rumor seeds, and
	// reachEnds the bridge ends among them: once reach nodes are active no
	// step activates another, and once reachEnds ends have arrived every
	// t_R of the realization is known.
	reach     int32
	reachEnds int
}

func newSampler(p *core.Problem, maxHops int, footprints bool) *sampler {
	reach := graph.Reachable(p.Graph, p.Rumors, graph.Forward)
	s := &sampler{p: p, maxHops: maxHops, footprints: footprints, reach: int32(len(reach))}
	for _, v := range reach {
		if p.IsEnd(v) {
			s.reachEnds++
		}
	}
	return s
}

// scratch is the per-worker reusable state of the sampler.
type scratch struct {
	*sampler
	n int32
	// arr[v] is the rumor's arrival hop at v in the realization in flight,
	// or -1 while it has not arrived (see forward for where the pass stops).
	arr []int32
	// table is the level-major step-target table: table[s-1][w] is the
	// node w targets at step s, or the sentinel n when w cannot relay
	// cascade P at step s: w has no out-edge, w is a rumor seed, or the
	// rumor claimed the target before step s. Rows are allocated on first
	// use and reused by later realizations.
	table [][]int32
	// cur and next are the double-buffered sweep levels, one bit per end
	// of the batch in flight. Index n is the sentinel's and stays zero.
	cur, next []uint64
	// order lists the coverable ends by t_R; rr[ei] is end ei's RR set;
	// hit lists the nodes of the batch in flight with N_0 nonempty.
	order []int32
	rr    [][]int32
	hit   []int32
	// fp marks the footprint of the realization in flight, and scanned
	// the nodes whose in-rows it already holds (Options.Footprints).
	fp, scanned []uint64
}

func (s *sampler) newScratch() *scratch {
	n := s.p.Graph.NumNodes()
	sc := &scratch{
		sampler: s,
		n:       n,
		arr:     make([]int32, n),
		cur:     make([]uint64, n+1),
		next:    make([]uint64, n+1),
		rr:      make([][]int32, len(s.p.Ends)),
	}
	if s.footprints {
		sc.fp = make([]uint64, n/64+1)
		sc.scanned = make([]uint64, n/64+1)
	}
	return sc
}

// sample computes the pairs of one realization: a forward pass for the
// rumor clock that also fills the step-target table, then one level sweep
// per batch of up to 64 coverable ends. When the sampler collects
// footprints, the returned footprint is the sorted set of nodes whose
// adjacency this realization read with effect; otherwise nil.
//
// The footprint contract (what Repair's skip argument needs): re-sampling
// this realization on a graph whose mutations avoid every footprint node
// yields identical pairs. The set is (1) every activated node: only active
// nodes' out-rows drive activations, so if none changed the forward pass
// replays step for step; (2) every node with N_0 nonempty in some batch,
// i.e. every member of an RR set; and (3) every non-seed in-neighbour of a
// node x with N_1 nonempty, the relays that could carry P to x at a step
// of at least 1 (their out-degree, out-row and rumor arrival decide it).
// The table draws every node's steps, but only those relays' entries reach
// an RR set. Rumor seeds never relay, and their seed status is part of the
// problem, not the graph.
func (sc *scratch) sample(realSeed uint64, realIdx int32) ([]Pair, int, []int32) {
	p, arr := sc.p, sc.arr
	sc.forward(realSeed)
	order := sc.order[:0]
	for ei, e := range p.Ends {
		if arr[e] >= 0 {
			order = append(order, int32(ei))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(arr[p.Ends[a]], arr[p.Ends[b]]) })
	for lo := 0; lo < len(order); lo += 64 {
		sc.sweep(order[lo:min(lo+64, len(order))])
	}
	sc.order = order
	var pairs []Pair
	for ei, e := range p.Ends {
		if arr[e] >= 0 {
			pairs = append(pairs, Pair{Realization: realIdx, End: int32(ei), Nodes: sc.rr[ei]})
		}
	}
	return pairs, len(p.Ends) - len(pairs), sc.footprint()
}

// forward runs the rumor clock of realization realSeed: at step s every
// node active before s targets FixedChoice(realSeed, w, s, deg), and the
// targets not yet active arrive at hop s. While some reachable end has not
// arrived, the step also writes table row s for every node, so each
// FixedChoice is drawn once for both directions. Without footprints the
// pass stops once every reachable end has arrived: later arrivals change
// no RR set. With them it runs on, since the footprint holds every
// activated node.
func (sc *scratch) forward(realSeed uint64) {
	g, n, arr := sc.p.Graph, sc.n, sc.arr
	for i := range arr {
		arr[i] = -1
	}
	active, ends := int32(0), 0
	for _, r := range sc.p.Rumors {
		if arr[r] != 0 {
			arr[r] = 0
			active++
			if sc.p.IsEnd(r) {
				ends++
			}
		}
	}
	for s := int32(1); int(s) <= sc.maxHops && active < sc.reach; s++ {
		fill := ends < sc.reachEnds
		if !fill && !sc.footprints {
			return
		}
		var row []int32
		if fill {
			if len(sc.table) < int(s) {
				sc.table = append(sc.table, make([]int32, n))
			}
			row = sc.table[s-1]
		}
		for w := int32(0); w < n; w++ {
			out := g.Out(w)
			aw := uint32(arr[w]) // -1, not yet arrived, reads as 2^32-1
			if len(out) == 0 || !fill && aw >= uint32(s) {
				if fill {
					row[w] = n
				}
				continue
			}
			x := out[diffusion.FixedChoice(realSeed, w, s, int32(len(out)))]
			if aw < uint32(s) && arr[x] < 0 {
				arr[x] = s
				active++
				if sc.p.IsEnd(x) {
					ends++
				}
			}
			if fill {
				if aw == 0 || uint32(arr[x]) < uint32(s) {
					row[w] = n
				} else {
					row[w] = x
				}
			}
		}
	}
}

// sweep computes the RR sets of batch, at most 64 indices into Ends in
// ascending t_R, with bit i of every word standing for batch[i].
//
// need_e(w), the latest hop by which a lone protector cascade must hold w
// to save end e, obeys need_e(e) = t_R(e) and otherwise need_e(w) = max,
// over the steps s ≤ need_e(x) at which w targets x, of min(s-1, t_R(w)).
// With N_c(w) the batch ends e with need_e(w) ≥ c, that is a sweep of the
// levels c = T_b … 0, T_b the batch's largest t_R: U(w) accumulates
// N_{c+1}(tgt_{c+1}(w)) for every non-seed w, e joins U(e) once c ≤ t_R(e),
// and N_c(w) = U(w) unless the rumor claimed w before hop c. The table's
// sentinels fold that cap into the read, so a level is one pass of
// next[w] = cur[w] | cur[tgt(w)] over the nodes. The two buffers keep each
// level reading only the level above: a relay advances one step per level.
// RR(e) is {u : e ∈ N_0(u)}.
func (sc *scratch) sweep(batch []int32) {
	ends, arr, n := sc.p.Ends, sc.arr, int(sc.n)
	cur, next := sc.cur, sc.next
	k := len(batch) - 1
	for c := arr[ends[batch[k]]]; ; c-- {
		for ; k >= 0 && arr[ends[batch[k]]] == c; k-- {
			cur[ends[batch[k]]] |= 1 << uint(k)
		}
		if c == 0 {
			break
		}
		if c == 1 && sc.footprints {
			sc.scanRelays(cur)
		}
		for w, x := range sc.table[c-1] {
			next[w] = cur[w] | cur[x]
		}
		cur, next = next, cur
	}
	sc.cur, sc.next = cur, next

	// cur is N_0. One pass sizes each end's set and collects the nodes in
	// any; the second fills the sets ascending and clears cur.
	var cnt [64]int
	hit := sc.hit[:0]
	for u, m := range cur[:n] {
		if m != 0 {
			hit = append(hit, int32(u))
			for ; m != 0; m &= m - 1 {
				cnt[bits.TrailingZeros64(m)]++
			}
		}
	}
	sc.hit = hit
	total := 0
	for _, c := range cnt {
		total += c
	}
	backing := make([]int32, total)
	var sets [64][]int32
	for i, off := 0, 0; i < len(batch); i++ {
		sets[i] = backing[off : off : off+cnt[i]]
		off += cnt[i]
	}
	for _, u := range hit {
		for m := cur[u]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			sets[i] = append(sets[i], u)
		}
		cur[u] = 0
		if sc.footprints {
			sc.fp[u>>6] |= 1 << uint(u&63)
		}
	}
	for i, ei := range batch {
		sc.rr[ei] = sets[i]
	}
}

// scanRelays adds to the footprint the non-seed in-neighbours of every
// node x with N_1(x) nonempty; u1 is the batch's level-1 U, and N_1(x) is
// U(x) unless x is a rumor seed.
func (sc *scratch) scanRelays(u1 []uint64) {
	g, arr := sc.p.Graph, sc.arr
	for x, m := range u1[:sc.n] {
		if m == 0 || arr[x] == 0 || sc.scanned[x>>6]&(1<<uint(x&63)) != 0 {
			continue
		}
		sc.scanned[x>>6] |= 1 << uint(x&63)
		for _, w := range g.In(int32(x)) {
			if arr[w] != 0 {
				sc.fp[w>>6] |= 1 << uint(w&63)
			}
		}
	}
}

// footprint adds the activated nodes to the realization's footprint and
// returns it sorted, resetting the bitmaps; nil without footprints.
func (sc *scratch) footprint() []int32 {
	if !sc.footprints {
		return nil
	}
	for u, a := range sc.arr {
		if a >= 0 {
			sc.fp[u>>6] |= 1 << uint(u&63)
		}
	}
	count := 0
	for _, m := range sc.fp {
		count += bits.OnesCount64(m)
	}
	out := make([]int32, 0, count)
	for wi, m := range sc.fp {
		for ; m != 0; m &= m - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(m)))
		}
	}
	clear(sc.fp)
	clear(sc.scanned)
	return out
}
