package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lcrb/internal/core"
	"lcrb/internal/resilience"
	"lcrb/internal/shardsolve"
	"lcrb/internal/sketch"
)

// shardTier is the daemon's sharded RIS solve tier: when configured
// (-shards), RIS answers come from a scatter-gather coordinator over
// shard workers instead of one local store, so a solve survives shard
// death and stragglers with an honestly tagged, still-valid answer.
//
// Two transports back the tier. An integer -shards N partitions the
// sketch across N in-process hosts (realizations ≡ i mod N per host) —
// same process, but the full robustness surface: the chaos tests in
// internal/shardsolve exercise exactly this wiring. A URL list makes the
// tier scatter over remote lcrbd -shard-of workers via HTTP.
type shardTier struct {
	count int      // in-process shard count; 0 in HTTP mode
	urls  []string // shard worker base URLs; nil in in-process mode
	hedge *resilience.HedgeStats
	logf  func(format string, args ...any)

	mu       sync.Mutex
	hosts    map[string][]*shardsolve.Host // in-process hosts by fingerprint
	building map[string]bool
	wg       sync.WaitGroup

	solves   atomic.Int64
	degraded atomic.Int64
	cold     atomic.Int64
	flushes  atomic.Int64
}

// parseShards parses the -shards spec: an integer for in-process
// sharding, or a comma-separated URL list for remote workers. Empty
// means the tier is off.
func parseShards(spec string) (count int, urls []string, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil, nil
	}
	if n, perr := strconv.Atoi(spec); perr == nil {
		if n < 1 {
			return 0, nil, fmt.Errorf("-shards %d must be positive", n)
		}
		return n, nil, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			return 0, nil, fmt.Errorf("-shards %q: want an integer or comma-separated http(s) URLs", spec)
		}
		urls = append(urls, strings.TrimRight(part, "/"))
	}
	return 0, urls, nil
}

// parseShardOf parses the -shard-of spec "i/n": this daemon serves shard
// i of an n-way partition. Empty means not a shard worker.
func parseShardOf(spec string) (index, count int, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, 0, nil
	}
	iStr, nStr, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard-of %q: want i/n", spec)
	}
	index, err = strconv.Atoi(iStr)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard-of %q: bad index: %w", spec, err)
	}
	count, err = strconv.Atoi(nStr)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard-of %q: bad count: %w", spec, err)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard-of %q: want 0 <= i < n", spec)
	}
	return index, count, nil
}

// newShardTier wires the tier, or returns nil when -shards is unset.
func newShardTier(count int, urls []string, hedge *resilience.HedgeStats, logf func(format string, args ...any)) *shardTier {
	if count == 0 && len(urls) == 0 {
		return nil
	}
	return &shardTier{
		count:    count,
		urls:     urls,
		hedge:    hedge,
		logf:     logf,
		hosts:    make(map[string][]*shardsolve.Host),
		building: make(map[string]bool),
	}
}

// enabled reports whether the sharded tier serves at all.
func (t *shardTier) enabled() bool { return t != nil }

// wait blocks until in-flight background slice builds exit (shutdown).
func (t *shardTier) wait() {
	if t == nil {
		return
	}
	t.wg.Wait()
}

// run serves one RIS request through the sharded tier. It returns
// (nil, nil) when the tier cannot serve this request yet — cold
// in-process slices, while a background build under drain warms them —
// and the caller falls through to the local ladder. The HTTP-mode
// eligibility check (remote workers only hold the daemon-default
// instance) happens in runRIS before this call.
func (t *shardTier) run(ctx, drain context.Context, req *resolvedRequest, prob *core.Problem, opts sketch.Options, resp *solveResponse) (*solveResponse, error) {
	var (
		tr     shardsolve.Transport
		shards int
	)
	if t.count > 0 {
		hosts := t.warmHosts(drain, prob, opts)
		if hosts == nil {
			t.cold.Add(1)
			return nil, nil
		}
		tr, shards = shardsolve.NewInProc(hosts, nil), t.count
	} else {
		tr, shards = shardsolve.NewHTTPTransport(t.urls, nil), len(t.urls)
	}

	c := &shardsolve.Coordinator{Transport: tr, Shards: shards, HedgeStats: t.hedge}
	res, err := c.SolveContext(ctx, shardsolve.Spec{Alpha: req.Alpha})
	if err != nil {
		return nil, err
	}
	t.solves.Add(1)
	out := *resp
	out.Algorithm = "ris"
	out.Protectors = res.Protectors
	out.ProtectedEnds = res.ProtectedEnds
	out.Achieved = res.Achieved
	out.Shards = &res.Shards
	if res.Degraded != "" {
		t.degraded.Add(1)
		out.Degraded = true
		out.DegradedReason = fmt.Sprintf("%s: %d of %d shards lost (%d of %d realizations); answer estimated from survivors",
			res.Degraded, res.Shards.Total-res.Shards.Live, res.Shards.Total,
			res.Shards.LostRealizations, res.Samples)
	}
	return &out, nil
}

// warmHosts returns the in-process hosts for the fingerprint, or nil on
// a cold tier while a background build warms it. Slices build once per
// fingerprint: each host's provider answers from the prebuilt set, so a
// request never pays a build inside its deadline. The build runs under
// drain, the daemon's drain scope: a canceled drain abandons it and
// publishes no hosts, so stop does not wait out a full build.
func (t *shardTier) warmHosts(drain context.Context, prob *core.Problem, opts sketch.Options) []*shardsolve.Host {
	fp := sketch.Fingerprint(prob, opts)
	t.mu.Lock()
	hosts := t.hosts[fp]
	building := t.building[fp]
	if hosts == nil && !building {
		t.building[fp] = true
	}
	t.mu.Unlock()
	if hosts != nil || building {
		return hosts
	}

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer func() {
			t.mu.Lock()
			delete(t.building, fp)
			t.mu.Unlock()
		}()
		built := make([]*shardsolve.Host, 0, t.count)
		for i := 0; i < t.count; i++ {
			slice, err := sketch.BuildShardContext(drain, prob, opts, i, t.count)
			if err != nil {
				t.logf("lcrbd: shard tier: build slice %d/%d: %v", i, t.count, err)
				return
			}
			built = append(built, shardsolve.NewHost(shardsolve.StaticProvider(slice)))
		}
		t.mu.Lock()
		t.hosts[fp] = built
		t.mu.Unlock()
		t.logf("lcrbd: shard tier warm: %d slices for %s", t.count, fp)
	}()
	return nil
}

// flush evicts every warm in-process host set. The dynamic repair loop
// calls it after a served-snapshot swap: the old fingerprints can never
// match again, and the next sharded solve rebuilds its slices against the
// new snapshot through warmHosts — the same rebuild-from-coordinates path
// a restarted shard worker takes.
func (t *shardTier) flush() {
	if t == nil || t.count == 0 {
		return
	}
	t.mu.Lock()
	n := len(t.hosts)
	t.hosts = make(map[string][]*shardsolve.Host)
	t.mu.Unlock()
	if n > 0 {
		t.flushes.Add(1)
		t.logf("lcrbd: shard tier: flushed %d warm host sets after snapshot swap", n)
	}
}

// stats reports the tier's counters for /v1/stats.
func (t *shardTier) stats() map[string]any {
	mode := "inproc"
	size := t.count
	if len(t.urls) > 0 {
		mode, size = "http", len(t.urls)
	}
	t.mu.Lock()
	warm := len(t.hosts)
	t.mu.Unlock()
	return map[string]any{
		"mode":     mode,
		"shards":   size,
		"solves":   t.solves.Load(),
		"degraded": t.degraded.Load(),
		"cold":     t.cold.Load(),
		"flushes":  t.flushes.Load(),
		"warmSets": warm,
	}
}

// shardWorkerHost builds the Host behind POST /v1/shard when this daemon
// runs as a shard worker (-shard-of i/n). The provider rebuilds the
// slice for the configured coordinates from the daemon-default instance
// and the CRN seed stream — which is also what lets a worker restarted
// mid-solve (or a spare started cold) serve the exact same realizations.
func (s *server) shardWorkerHost() *shardsolve.Host {
	return shardsolve.NewHost(func(index, count int) (*sketch.Set, error) {
		if index != s.cfg.shardOfIndex || count != s.cfg.shardOfCount {
			return nil, fmt.Errorf("this worker serves shard %d/%d, not %d/%d",
				s.cfg.shardOfIndex, s.cfg.shardOfCount, index, count)
		}
		req, err := s.defaultRequest()
		if err != nil {
			return nil, err
		}
		prob, _, err := s.problem(req)
		if err != nil {
			return nil, err
		}
		return sketch.BuildShardContext(s.hardDrain, prob, s.sketches.options(req), index, count)
	})
}

// defaultRequest resolves the daemon's default solve parameters — the
// instance a shard worker holds a slice of.
func (s *server) defaultRequest() (*resolvedRequest, error) {
	return decodeSolveRequest(strings.NewReader("{}"), s.cfg)
}

// isDefaultInstance reports whether the request resolves to the same
// sketch as the daemon defaults — the only instance remote shard workers
// hold slices of. Fields that do not shape the sketch fingerprint
// (timeout, tenant, σ̂ sample count, alpha) are ignored: they change the
// question asked of the sketch, not the sketch itself.
func (s *server) isDefaultInstance(req *resolvedRequest) bool {
	d, err := s.defaultRequest()
	if err != nil {
		return false
	}
	return req.Dataset == d.Dataset && req.Scale == d.Scale && req.Seed == d.Seed &&
		req.CommunitySize == d.CommunitySize && req.RumorFraction == d.RumorFraction &&
		req.MaxHops == d.MaxHops
}
