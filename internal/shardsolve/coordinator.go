package shardsolve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/resilience"
	"lcrb/internal/sketch"
)

// Default robustness knobs; see the Coordinator fields.
const (
	defaultHedgeDelay  = 25 * time.Millisecond
	defaultCallTimeout = 2 * time.Second
	defaultRetries     = 3
)

// Coordinator drives sharded scatter-gather solves over a Transport; see
// the package comment for the algorithm and its guarantees. The zero
// robustness knobs select the documented defaults, so a usable
// coordinator is just {Transport: t, Shards: n}. Safe for concurrent
// SolveContext calls — each solve carries its own session id and per-run
// state (the per-endpoint breakers are per solve too: a solve-scoped
// failure verdict, not a process-wide one, keeps concurrent solves from
// blaming each other's endpoints).
type Coordinator struct {
	// Transport reaches the endpoints. Endpoints 0..Shards−1 serve the
	// shard identities; any extras are spares dead identities requeue
	// onto.
	Transport Transport
	// Shards is the shard-identity count; Transport.Endpoints() must be
	// at least this.
	Shards int

	// HedgeDelay is how long a scatter leg waits before launching its
	// hedge attempt. 0 means 25ms; negative launches the hedge
	// immediately (a plain race).
	HedgeDelay time.Duration
	// CallTimeout bounds each retry attempt of a scatter leg (the
	// hedged pair together). 0 means 2s; negative disables the bound —
	// then only cancellation or a hedge win gets past a double stall.
	CallTimeout time.Duration
	// RetryAttempts is the per-leg retry budget. Values < 1 mean 3. A
	// leg that spends it is dead: requeued onto a spare or excluded.
	RetryAttempts int
	// Breaker tunes the per-endpoint circuit breakers (zero value means
	// the resilience defaults). A leg rejected by an open breaker is not
	// retried — the endpoint is declared dead immediately.
	Breaker resilience.BreakerOptions
	// HedgeStats, when non-nil, aggregates hedge outcomes across solves
	// — the serving layer shares one instance between this tier and its
	// solve ladder for /v1/stats.
	HedgeStats *resilience.HedgeStats
}

// solveSeq numbers auto-generated solve ids within the process.
var solveSeq atomic.Int64

// SolveContext runs one sharded lazy-greedy solve. On cancellation the
// best-so-far prefix is returned with Partial set alongside the error,
// following the repo's partial-result contract. A solve that loses every
// shard returns an error — there is no surviving sample to answer from.
func (c *Coordinator) SolveContext(ctx context.Context, spec Spec) (*Result, error) {
	if c.Transport == nil {
		return nil, fmt.Errorf("shardsolve: solve: nil transport")
	}
	if c.Shards < 1 {
		return nil, fmt.Errorf("shardsolve: solve: shards = %d must be positive", c.Shards)
	}
	if c.Transport.Endpoints() < c.Shards {
		return nil, fmt.Errorf("shardsolve: solve: transport has %d endpoints for %d shards",
			c.Transport.Endpoints(), c.Shards)
	}
	if spec.Alpha == 0 {
		spec.Alpha = 0.9
	}
	if err := core.ValidateAlphaOpen(spec.Alpha); err != nil {
		return nil, fmt.Errorf("shardsolve: solve: %w", err)
	}
	id := spec.SolveID
	if id == "" {
		id = fmt.Sprintf("shardsolve-%d", solveSeq.Add(1))
	}

	s := &solveRun{c: c, spec: spec, id: id, count: c.Shards}
	s.breakers = make([]*resilience.Breaker, c.Transport.Endpoints())
	for i := range s.breakers {
		s.breakers[i] = resilience.NewBreaker(c.Breaker)
	}
	s.nextSpare = c.Shards
	for i := 0; i < c.Shards; i++ {
		s.members = append(s.members, &member{identity: i, endpoint: i, live: true})
	}
	s.liveCount = c.Shards
	defer s.forget(ctx)
	return s.run(ctx)
}

// member is one shard identity's routing state: which endpoint currently
// serves it and whether it still contributes to the estimate.
type member struct {
	identity int
	endpoint int
	live     bool
}

// solveRun is the per-solve state of a coordinator.
type solveRun struct {
	c     *Coordinator
	spec  Spec
	id    string
	count int

	breakers  []*resilience.Breaker
	nextSpare int

	members   []*member
	liveCount int
	lost      int // realizations gone with excluded shards

	// Init-phase facts.
	samples        int
	numEnds        int
	required       int
	baselineBy     []int // per identity
	realizationsBy []int // per identity

	// Loss-accounting ledger: commitGains[k][i] is commit k's local gain
	// on identity i (0 for identities already dead at commit time, which
	// stay dead — exclusion is permanent, so live-only sums are exact).
	commitGains [][]int

	// Lazy-greedy state, mirroring sketch.greedyCover.
	selected    []int32
	gainInts    []int
	baseline    int
	covered     int
	target      int
	epoch       int32
	evaluations int
}

// run executes init + the lazy-greedy loop.
func (s *solveRun) run(ctx context.Context) (*Result, error) {
	pq, err := s.init(ctx)
	if err != nil {
		return nil, err
	}

	maxProtectors := s.spec.MaxProtectors
	if maxProtectors <= 0 {
		maxProtectors = s.numEnds
	}

	for s.covered < s.target && len(s.selected) < maxProtectors && len(pq) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			res := s.result()
			res.Partial = true
			return res, fmt.Errorf("shardsolve: solve: %w", cerr)
		}
		if top := &pq[0]; top.round != s.epoch {
			// Stale upper bound: recount the maximum against the live
			// membership's covered state — per-shard gains are
			// non-negative, so a stale gain (even one that still counts a
			// since-excluded shard) upper-bounds the current one and the
			// lazy argument carries over shard loss unchanged.
			g, rerr := s.recount(ctx, top.node())
			if rerr != nil {
				res := s.result()
				res.Partial = true
				return res, fmt.Errorf("shardsolve: solve: %w", rerr)
			}
			top.key = lazyKey(int32(g), top.node())
			top.round = s.epoch
			s.evaluations++
			pq.siftDown(0)
			continue
		}
		top := pq.popEntry()
		if top.gain() <= 0 {
			break
		}
		if cerr := s.commit(ctx, top.node()); cerr != nil {
			res := s.result()
			res.Partial = true
			return res, fmt.Errorf("shardsolve: solve: %w", cerr)
		}
		s.epoch++
	}
	return s.result(), nil
}

// init scatters OpInit, reconciles deaths, verifies the shards agree on
// the build shape, and builds the round-0 lazy queue.
func (s *solveRun) init(ctx context.Context) (lazyQueue, error) {
	build := func(m *member) *Request {
		return &Request{Op: OpInit, SolveID: s.id, Shard: m.identity, Count: s.count}
	}
	resps, err := s.gather(ctx, build)
	if err != nil {
		return nil, err
	}

	s.baselineBy = make([]int, s.count)
	s.realizationsBy = make([]int, s.count)
	first := true
	for i, m := range s.members {
		if !m.live {
			continue
		}
		r := resps[i]
		if first {
			s.samples, s.numEnds = r.Samples, r.NumEnds
			first = false
		}
		if r.Samples != s.samples || r.NumEnds != s.numEnds {
			return nil, fmt.Errorf("shardsolve: init: shard %d reports samples=%d ends=%d, shard pool has samples=%d ends=%d — mixed builds",
				m.identity, r.Samples, r.NumEnds, s.samples, s.numEnds)
		}
		if want := sketch.ShardRealizations(s.samples, m.identity, s.count); r.ShardSamples != want {
			return nil, fmt.Errorf("shardsolve: init: shard %d holds %d realizations, want %d of %d",
				m.identity, r.ShardSamples, want, s.samples)
		}
		s.baselineBy[m.identity] = r.BaselinePairs
		s.realizationsBy[m.identity] = r.ShardSamples
	}
	if s.samples <= 0 || s.numEnds <= 0 {
		return nil, fmt.Errorf("shardsolve: init: shards report samples=%d ends=%d", s.samples, s.numEnds)
	}
	// Identities excluded during init hold ShardRealizations realizations
	// by construction — the CRN partition makes a dead shard's
	// contribution computable without asking it.
	for _, m := range s.members {
		if !m.live {
			s.realizationsBy[m.identity] = sketch.ShardRealizations(s.samples, m.identity, s.count)
		}
	}
	s.required = requiredEnds(s.spec.Alpha, s.numEnds)
	s.recomputeTotals()

	// Round 0: merge per-shard candidate counts; a candidate's global
	// pair count is the sum of its per-shard counts because the slices
	// partition the pair pool. Sorted ascending like the single-store
	// queue build (order is cosmetic — keys are unique — but determinism
	// is free here).
	merged := map[int32]int{}
	for i, m := range s.members {
		if !m.live {
			continue
		}
		for _, nc := range resps[i].Counts {
			merged[nc.Node] += nc.Pairs
		}
	}
	nodes := make([]int32, 0, len(merged))
	for u := range merged {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	pq := make(lazyQueue, 0, len(nodes))
	for _, u := range nodes {
		pq = append(pq, lazyEntry{key: lazyKey(int32(merged[u]), u), round: s.epoch})
		s.evaluations++
	}
	pq.initQueue()
	return pq, nil
}

// recount gathers one candidate's marginal gain from every live shard.
func (s *solveRun) recount(ctx context.Context, node int32) (int, error) {
	build := func(m *member) *Request {
		return &Request{Op: OpGains, SolveID: s.id, Shard: m.identity, Count: s.count,
			Committed: s.selected, Candidates: []int32{node}}
	}
	resps, err := s.gather(ctx, build)
	if err != nil {
		return 0, err
	}
	g := 0
	for i, m := range s.members {
		if !m.live {
			continue
		}
		if len(resps[i].Gains) != 1 {
			return 0, fmt.Errorf("shardsolve: recount: shard %d returned %d gains for 1 candidate",
				m.identity, len(resps[i].Gains))
		}
		g += resps[i].Gains[0]
	}
	return g, nil
}

// commit commits node on every live shard and books the gathered local
// gains into the ledger and the running totals.
func (s *solveRun) commit(ctx context.Context, node int32) error {
	build := func(m *member) *Request {
		return &Request{Op: OpCommit, SolveID: s.id, Shard: m.identity, Count: s.count,
			Committed: s.selected, Node: node}
	}
	resps, err := s.gather(ctx, build)
	if err != nil {
		return err
	}
	row := make([]int, s.count)
	for i, m := range s.members {
		if m.live {
			row[m.identity] = resps[i].Gain
		}
	}
	s.commitGains = append(s.commitGains, row)
	s.selected = append(s.selected, node)
	// If the membership shrank mid-commit, gather already rebuilt the
	// totals over the survivors (before this row was booked); the
	// incremental booking below sums live entries only, so it is exact
	// in both the clean and the lossy case.
	g := 0
	for _, lg := range row {
		g += lg
	}
	s.gainInts = append(s.gainInts, g)
	s.covered += g
	return nil
}

// gather scatters a request to every live member, requeues or excludes
// the legs that die, and returns responses aligned with s.members (nil at
// dead members). The returned responses are mutually consistent even
// under mid-gather loss: a gains or commit response depends only on the
// answering shard's own slice and the request's committed prefix, never
// on which other shards are alive.
func (s *solveRun) gather(ctx context.Context, build func(m *member) *Request) ([]*Response, error) {
	resps := make([]*Response, len(s.members))
	errs := make([]error, len(s.members))
	var wg sync.WaitGroup
	for i, m := range s.members {
		if !m.live {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			resps[i], errs[i] = s.callShard(ctx, m.endpoint, build(m))
		}(i, m)
	}
	wg.Wait()

	liveBefore := s.liveCount
	for i, m := range s.members {
		if !m.live || errs[i] == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		resp, ok := s.requeue(ctx, m, build)
		if !ok {
			s.exclude(m)
			continue
		}
		resps[i] = resp
	}
	if s.liveCount == 0 {
		return nil, fmt.Errorf("shardsolve: all %d shards lost: %w", s.count, ErrEndpointDown)
	}
	if s.liveCount != liveBefore && s.realizationsBy != nil {
		// Post-init exclusions invalidate every running total; rebuild
		// them over the survivors now, so the caller always sees totals
		// consistent with the membership its responses came from. (During
		// init, realizationsBy is still nil and init recomputes itself.)
		s.recomputeTotals()
	}
	return resps, nil
}

// requeue tries to move a dead member onto spare endpoints, replaying the
// failed request against each until one serves it. The spare rebuilds the
// member's slice from its provider and reconciles to the request's
// committed prefix — the session-free protocol needs no handover from the
// corpse. Returns the spare's response and true on success; false leaves
// the member for exclusion.
func (s *solveRun) requeue(ctx context.Context, m *member, build func(m *member) *Request) (*Response, bool) {
	for s.nextSpare < s.c.Transport.Endpoints() {
		ep := s.nextSpare
		s.nextSpare++
		resp, err := s.callShard(ctx, ep, build(m))
		if err != nil {
			continue
		}
		m.endpoint = ep
		return resp, true
	}
	return nil, false
}

// exclude removes a dead member from the estimate: every queue entry
// goes stale (the epoch bump forces recounts against the survivors) and
// the running totals must be rebuilt via recomputeTotals.
func (s *solveRun) exclude(m *member) {
	m.live = false
	s.liveCount--
	s.epoch++
}

// recomputeTotals rebuilds the lost-realization count, baseline, covered,
// the per-commit gains and the α target over the live membership, from
// the per-shard ledger. The estimate after loss is exactly what a
// single-store solve over only the surviving realizations would have
// accumulated for this commit prefix.
func (s *solveRun) recomputeTotals() {
	s.lost = 0
	s.baseline = 0
	for _, m := range s.members {
		if m.live {
			s.baseline += s.baselineBy[m.identity]
		} else {
			s.lost += s.realizationsBy[m.identity]
		}
	}
	s.covered = 0
	s.gainInts = s.gainInts[:0]
	for _, row := range s.commitGains {
		g := 0
		for _, m := range s.members {
			if m.live {
				g += row[m.identity]
			}
		}
		s.gainInts = append(s.gainInts, g)
		s.covered += g
	}
	s.target = s.required*(s.samples-s.lost) - s.baseline
}

// callShard runs one scatter leg: Retry around the endpoint's Breaker
// around a Hedge of transport calls, with a per-attempt timeout that is
// reported as ErrCallTimeout (not a context error) so the retry layer
// treats a straggling endpoint as retryable rather than as a canceled
// solve.
func (s *solveRun) callShard(ctx context.Context, ep int, req *Request) (*Response, error) {
	attempts := s.c.RetryAttempts
	if attempts < 1 {
		attempts = defaultRetries
	}
	retry := resilience.Retry{
		Attempts:  attempts,
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Seed:      uint64(ep) + 1,
		Retryable: func(err error) bool { return !errors.Is(err, resilience.ErrOpen) },
	}
	var resp *Response
	err := retry.DoContext(ctx, func(rctx context.Context) error {
		var aerr error
		resp, aerr = s.attempt(rctx, ep, req)
		return aerr
	})
	if err != nil {
		return nil, fmt.Errorf("shardsolve: endpoint %d: %w", ep, err)
	}
	return resp, nil
}

// attempt is one retry attempt: breaker-guarded, hedged, time-bounded.
func (s *solveRun) attempt(ctx context.Context, ep int, req *Request) (*Response, error) {
	timeout := s.c.CallTimeout
	if timeout == 0 {
		timeout = defaultCallTimeout
	}
	cctx, cancel := ctx, func() {}
	if timeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	delay := s.c.HedgeDelay
	if delay == 0 {
		delay = defaultHedgeDelay
	}
	if delay < 0 {
		delay = 0
	}
	var resp *Response
	err := s.breakers[ep].DoContext(cctx, func(bctx context.Context) error {
		hedge := resilience.Hedge{Delay: delay, Attempts: 2, Stats: s.c.HedgeStats}
		v, herr := hedge.DoContext(bctx, func(hctx context.Context, _ int) (any, error) {
			return s.c.Transport.Call(hctx, ep, req)
		})
		if herr != nil {
			return herr
		}
		resp = v.(*Response)
		return nil
	})
	if err != nil && cctx.Err() != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("shardsolve: endpoint %d: attempt exceeded %v: %w", ep, timeout, ErrCallTimeout)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// forget drops the solve's sessions on the live shards, best-effort with
// a short bound — hygiene, not correctness: a host that misses it keeps a
// dormant session until its next restart.
func (s *solveRun) forget(ctx context.Context) {
	fctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	for _, m := range s.members {
		if !m.live {
			continue
		}
		_, _ = s.c.Transport.Call(fctx, m.endpoint, &Request{
			Op: OpForget, SolveID: s.id, Shard: m.identity, Count: s.count,
		})
	}
}

// result assembles the Result from the run's current state; every σ̂ is
// normalized by the effective sample count.
func (s *solveRun) result() *Result {
	nEff := s.samples - s.lost
	res := &Result{
		Samples:          s.samples,
		EffectiveSamples: nEff,
		Shards:           ShardsInfo{Total: s.count, Live: s.liveCount, LostRealizations: s.lost},
	}
	n := float64(nEff)
	res.BaselineEnds = float64(s.baseline) / n
	res.Protectors = append([]int32{}, s.selected...)
	for _, g := range s.gainInts {
		res.Gains = append(res.Gains, float64(g)/n)
	}
	res.ProtectedEnds = float64(s.baseline+s.covered) / n
	res.Achieved = s.covered >= s.target
	res.Evaluations = s.evaluations
	if s.lost > 0 {
		res.Degraded = DegradedShardLoss
	}
	return res
}

// requiredEnds replicates core.Problem.RequiredEnds from the end count
// alone — the coordinator never holds the Problem in HTTP deployments.
func requiredEnds(alpha float64, numEnds int) int {
	if alpha <= 0 {
		return 0
	}
	if alpha >= 1 {
		return numEnds
	}
	need := int(alpha * float64(numEnds))
	if float64(need) < alpha*float64(numEnds) {
		need++
	}
	return need
}

// lazyEntry, lazyKey and lazyQueue replicate the single-store solver's
// queue discipline (sketch.coverQueue): (gain desc, node asc) packed into
// one max-ordered uint64 key, served by a 4-ary heap. Keys are unique —
// node ids break gain ties — so every max-heap discipline pops the same
// sequence; replicating the concrete one keeps even the internal array
// states aligned with the solver the bit-identity tests diff against.
type lazyEntry struct {
	key   uint64
	round int32
}

// lazyKey packs (gain desc, node asc): key(a) > key(b) ⇔ a precedes b.
func lazyKey(gain, node int32) uint64 {
	return uint64(uint32(gain))<<32 | uint64(^uint32(node))
}

func (e lazyEntry) gain() int32 { return int32(uint32(e.key >> 32)) }
func (e lazyEntry) node() int32 { return int32(^uint32(e.key)) }

type lazyQueue []lazyEntry

// initQueue establishes the heap invariant in O(n).
func (q lazyQueue) initQueue() {
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// popEntry removes and returns the maximum entry.
func (q *lazyQueue) popEntry() lazyEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	if n > 1 {
		(*q).siftDown(0)
	}
	return top
}

// siftDown restores the invariant below i.
func (q lazyQueue) siftDown(i int) {
	n := len(q)
	e := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		best, bestKey := first, q[first].key
		for c := first + 1; c < last; c++ {
			if k := q[c].key; k > bestKey {
				best, bestKey = c, k
			}
		}
		if bestKey <= e.key {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = e
}
