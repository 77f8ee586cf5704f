package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/sketch"
)

// sketchStore is the daemon's warm RR-set sketch cache: the fast rung of
// the serving ladder. A request whose fingerprint hits a warm sketch is
// answered by pure max coverage — zero diffusion simulations — while a
// miss falls through to the Monte-Carlo ladder and (for auto/ris requests)
// triggers an asynchronous build so the next identical request is warm.
//
// Sketches live in memory keyed by fingerprint; when dir is set they also
// persist across restarts through sketch.Save/Load, which verify the
// fingerprint on the way in — a sketch built for a different graph, rumor
// draw or horizon is counted stale and rebuilt, never served.
type sketchStore struct {
	samples int
	eps     float64
	workers int
	dir     string
	// dynamic marks the daemon's -dynamic mode: builds record per-
	// realization footprints (the repair index) and bind to the graph
	// version they were built at.
	dynamic bool
	logf    func(format string, args ...any)

	mu       sync.Mutex
	sets     map[string]*sketchEntry
	built    map[string]time.Time
	building map[string]bool
	// wg tracks in-flight build goroutines so shutdown can wait for them
	// (after canceling their context) instead of leaking workers that log
	// into a torn-down process.
	wg sync.WaitGroup

	hits        atomic.Int64
	misses      atomic.Int64
	stale       atomic.Int64
	builds      atomic.Int64
	buildErrors atomic.Int64
	repaired    atomic.Int64
}

// sketchEntry is one warm sketch plus the problem it answers for — kept so
// the dynamic repair loop can rebind the entry to a mutated graph without
// re-deriving the instance (the rumor set and community are version-
// invariant; only the graph and the recomputed ends change).
type sketchEntry struct {
	set  *sketch.Set
	prob *core.Problem
	opts sketch.Options
}

// newSketchStore returns a store building samples-realization sketches —
// or adaptively sized ones when eps is positive (eps overrides samples) —
// or nil when both are 0 (the RIS rung disabled).
func newSketchStore(samples int, eps float64, workers int, dir string, dynamic bool, logf func(format string, args ...any)) *sketchStore {
	if samples <= 0 && eps <= 0 {
		return nil
	}
	return &sketchStore{
		samples:  samples,
		eps:      eps,
		workers:  workers,
		dir:      dir,
		dynamic:  dynamic,
		logf:     logf,
		sets:     make(map[string]*sketchEntry),
		built:    make(map[string]time.Time),
		building: make(map[string]bool),
	}
}

// enabled reports whether the RIS rung serves at all.
func (st *sketchStore) enabled() bool { return st != nil }

// options derives the request's sketch build options. The seed offset
// keeps sketch realizations independent of the greedy's σ̂ samples while
// staying a pure function of the request, so equal requests hit equal
// fingerprints. With -sketch-eps set the build sizes itself adaptively;
// otherwise the fixed -sketch-samples count applies.
func (st *sketchStore) options(req *resolvedRequest) sketch.Options {
	opts := sketch.Options{
		Seed:    req.Seed + 400,
		MaxHops: req.MaxHops,
		Workers: st.workers,
	}
	if st.eps > 0 {
		opts.Epsilon = st.eps
	} else {
		opts.Samples = st.samples
	}
	// Dynamic mode records footprints so deltas repair the warm store
	// instead of rebuilding it; the fingerprint ignores the flag.
	opts.Footprints = st.dynamic
	return opts
}

// path is the on-disk location of a fingerprint's sketch.
func (st *sketchStore) path(fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	return filepath.Join(st.dir, fmt.Sprintf("sketch-%016x.json", h.Sum64()))
}

// get returns the warm sketch for the problem, consulting memory first and
// the persistent directory second. It returns nil on a cold or stale
// store and counts the outcome.
//
// version is the graph version the answer must be current for (0 = static
// serving, no version binding). The fingerprint already pins the adjacency
// hash, but a mutation batch and its inverse restore the hash while the
// sketch trails — the version check catches exactly that case, in memory
// and (via sketch.LoadVersioned) on disk.
func (st *sketchStore) get(prob *core.Problem, opts sketch.Options, version uint64) *sketch.Set {
	fp := sketch.Fingerprint(prob, opts)
	st.mu.Lock()
	entry := st.sets[fp]
	if entry != nil && version > 0 && entry.set.Version != version {
		delete(st.sets, fp)
		entry = nil
		st.stale.Add(1)
	}
	st.mu.Unlock()
	if entry != nil {
		st.hits.Add(1)
		return entry.set
	}
	if st.dir != "" {
		var set *sketch.Set
		var err error
		if version > 0 {
			set, err = sketch.LoadVersioned(st.path(fp), fp, version)
		} else {
			set, err = sketch.Load(st.path(fp), fp)
		}
		switch {
		case err == nil:
			st.mu.Lock()
			st.sets[fp] = &sketchEntry{set: set, prob: prob, opts: opts}
			if _, ok := st.built[fp]; !ok {
				st.built[fp] = time.Now()
			}
			st.mu.Unlock()
			st.hits.Add(1)
			return set
		case errors.Is(err, sketch.ErrStale):
			st.stale.Add(1)
			st.logf("lcrbd: sketch store: stale sketch rejected: %v", err)
		case errors.Is(err, os.ErrNotExist):
			// Cold disk store: a plain miss.
		default:
			st.logf("lcrbd: sketch store: load: %v", err)
		}
	}
	st.misses.Add(1)
	return nil
}

// ensure starts an asynchronous build for the problem's sketch unless one
// is already warm or in flight. The build runs under ctx (the daemon's
// hard-drain context, not the request's), so an impatient client cannot
// abandon a build every later request would have reused, while a draining
// daemon still cancels it.
// version is the graph version the build is for (0 = static); it is
// stamped into the set before it becomes visible, so the version binding
// holds in memory and on disk alike.
func (st *sketchStore) ensure(ctx context.Context, prob *core.Problem, opts sketch.Options, version uint64) {
	fp := sketch.Fingerprint(prob, opts)
	st.mu.Lock()
	if st.sets[fp] != nil || st.building[fp] {
		st.mu.Unlock()
		return
	}
	st.building[fp] = true
	st.mu.Unlock()

	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer func() {
			st.mu.Lock()
			delete(st.building, fp)
			st.mu.Unlock()
		}()
		start := time.Now()
		set, err := sketch.BuildContext(ctx, prob, opts)
		if err != nil {
			st.buildErrors.Add(1)
			st.logf("lcrbd: sketch build failed: %v", err)
			return
		}
		set.Version = version
		st.mu.Lock()
		st.sets[fp] = &sketchEntry{set: set, prob: prob, opts: opts}
		st.built[fp] = time.Now()
		st.mu.Unlock()
		if st.dir != "" {
			if err := sketch.Save(st.path(fp), set); err != nil {
				st.logf("lcrbd: sketch save: %v", err)
			}
		}
		// The counter commits after persistence: once /v1/stats reports a
		// build, the sketch is warm in memory AND (when -sketch-dir is set)
		// durable on disk.
		st.builds.Add(1)
		st.logf("lcrbd: sketch built in %v: %d realizations, %d pairs",
			time.Since(start).Round(time.Millisecond), set.Samples, len(set.Pairs))
	}()
}

// drainBuilds blocks until every in-flight build goroutine has exited.
// Callers cancel the builds' context (hardStop) first, so the wait is
// bounded by a cancellation check, not a full build.
func (st *sketchStore) drainBuilds() {
	if st == nil {
		return
	}
	st.wg.Wait()
}

// stats reports the store's counters for /v1/stats, including the age of
// the newest warm sketch — the operator's signal that the fast rung is
// serving fresh estimates.
func (st *sketchStore) stats() map[string]any {
	st.mu.Lock()
	entries := len(st.sets)
	// realizedSamples totals the realization counts of the warm sketches —
	// under -sketch-eps this is what the adaptive rule actually spent, the
	// operator's view of the stopping rule at work.
	realized := 0
	for _, entry := range st.sets {
		realized += entry.set.Samples
	}
	var newest time.Time
	for _, at := range st.built {
		if at.After(newest) {
			newest = at
		}
	}
	st.mu.Unlock()
	out := map[string]any{
		"hits":            st.hits.Load(),
		"misses":          st.misses.Load(),
		"stale":           st.stale.Load(),
		"builds":          st.builds.Load(),
		"buildErrors":     st.buildErrors.Load(),
		"repaired":        st.repaired.Load(),
		"entries":         entries,
		"realizedSamples": realized,
		"adaptive":        st.eps > 0,
	}
	if !newest.IsZero() {
		out["newestBuildAgeSeconds"] = time.Since(newest).Seconds()
	}
	return out
}

// runRIS serves the fast rung from a warm sketch: lazy-greedy max coverage
// with zero diffusion simulations. It returns (nil, nil) on a cold or
// stale store — the caller falls through to the SCBG cover — and always
// kicks an asynchronous build on a miss so the store warms up.
//
// With the sharded tier configured (-shards), the rung scatters the solve
// over shard workers first: the answer is bit-identical to the local
// store's when every shard answers, and honestly tagged (shards census,
// shard_loss reason) when some died. A tier that cannot serve yet — cold
// slices, or an HTTP-mode request for a non-default instance — falls
// through to the local store below.
func (s *server) runRIS(ctx context.Context, req *resolvedRequest, prob *core.Problem, resp *solveResponse) (*solveResponse, error) {
	if !s.sketches.enabled() {
		return nil, nil
	}
	opts := s.sketches.options(req)
	if s.shards.enabled() && (s.shards.count > 0 || s.isDefaultInstance(req)) {
		out, err := s.shards.run(ctx, s.hardDrain, req, prob, opts, resp)
		if err != nil {
			s.logf("lcrbd: sharded ris failed, trying local store: %v", err)
		} else if out != nil {
			return out, nil
		}
	}
	// In dynamic mode the response carries the served snapshot version the
	// problem was built on; the store binds warm sketches to it.
	var version uint64
	if resp.Staleness != nil {
		version = resp.Staleness.Version
	}
	set := s.sketches.get(prob, opts, version)
	if set == nil {
		s.sketches.ensure(s.hardDrain, prob, opts, version)
		return nil, nil
	}
	res, err := sketch.SolveGreedyRISContext(ctx, prob, set, sketch.SolveOptions{Alpha: req.Alpha})
	if err != nil {
		return nil, err
	}
	out := *resp
	out.Algorithm = "ris"
	out.Protectors = res.Protectors
	out.ProtectedEnds = res.ProtectedEnds
	out.Achieved = res.Achieved
	return &out, nil
}

// extendAssign pads a community assignment to n nodes; nodes born after
// community detection get -1 (no community), the dynamic-serving convention
// shared with experiment.NewProblemOn.
func extendAssign(assign []int32, n int32) []int32 {
	out := append([]int32(nil), assign...)
	for int32(len(out)) < n {
		out = append(out, -1)
	}
	return out
}

// repairAll patches every warm sketch built at graph version oldVersion
// onto the target snapshot via sketch.Repair: only realizations whose
// recorded footprints intersect the dirty nodes re-draw, and the result is
// bit-for-bit the full rebuild at the new version. Each repaired entry is
// re-keyed under its new fingerprint (the adjacency hash changed), stamped
// with the new version, and re-persisted when -sketch-dir is set. Entries
// that fail to repair are dropped — their fingerprints can never match a
// future request, so keeping them would only leak memory.
func (st *sketchStore) repairAll(ctx context.Context, oldVersion uint64, target *dyngraph.Snapshot, dirty []int32) (repaired, kept, rebuilds, errs int) {
	st.mu.Lock()
	fps := make([]string, 0, len(st.sets))
	for fp, entry := range st.sets {
		if entry.set.Version == oldVersion {
			fps = append(fps, fp)
		}
	}
	st.mu.Unlock()
	sort.Strings(fps)

	for _, fp := range fps {
		st.mu.Lock()
		entry := st.sets[fp]
		st.mu.Unlock()
		if entry == nil || entry.set.Version != oldVersion {
			continue // raced with another repair pass
		}
		newP, err := core.NewProblem(target.Graph,
			extendAssign(entry.prob.Assign, target.Graph.NumNodes()),
			entry.prob.RumorCommunity, entry.prob.Rumors)
		if err != nil {
			errs++
			st.dropEntry(fp, entry)
			st.logf("lcrbd: sketch repair: rebind problem: %v", err)
			continue
		}
		set, stats, err := sketch.RepairContext(ctx, entry.prob, newP, entry.set, dirty, target.Version, st.workers)
		if err != nil {
			errs++
			st.dropEntry(fp, entry)
			st.logf("lcrbd: sketch repair: %v", err)
			continue
		}
		repaired += stats.Repaired
		kept += stats.Kept
		if stats.FullRebuild {
			rebuilds++
		}
		newFP := set.Fingerprint
		st.mu.Lock()
		if st.sets[fp] == entry {
			delete(st.sets, fp)
		}
		st.sets[newFP] = &sketchEntry{set: set, prob: newP, opts: entry.opts}
		st.built[newFP] = time.Now()
		st.mu.Unlock()
		st.repaired.Add(1)
		if st.dir != "" {
			if err := sketch.Save(st.path(newFP), set); err != nil {
				st.logf("lcrbd: sketch repair save: %v", err)
			}
		}
	}
	return repaired, kept, rebuilds, errs
}

// dropEntry removes a dead entry, guarding against a concurrent replacement.
func (st *sketchStore) dropEntry(fp string, entry *sketchEntry) {
	st.mu.Lock()
	if st.sets[fp] == entry {
		delete(st.sets, fp)
	}
	st.mu.Unlock()
}
