// Incremental sketch maintenance: patch a built sketch after a graph
// mutation instead of rebuilding every realization.
//
// The correctness argument is a replay induction over what the sampler
// reads. Realization r's pairs are a pure function of (realization seed,
// problem): the forward pass reads only active nodes' out-rows, and an RR
// set depends only on its members' in-rows and the out-rows of the relays
// into them — and Options.Footprints records exactly that node set per
// realization. A dyngraph batch marks a node dirty when its out-row or
// in-row changed; if realization r's footprint intersects no dirty node,
// every adjacency row the old sampling read is bit-identical in the new
// snapshot, so re-running r there retraces the same reads and emits the
// same pairs — skipping it is exact, not approximate. Realizations whose
// footprint is hit re-draw from their original CRN seed (the seed stream is
// a pure function of Set.Seed, independent of the graph), which makes the
// patched sketch bit-for-bit the sketch a full rebuild at the new version
// would produce. TestRepairMatchesRebuildOracleGeneratedStream holds Repair
// to that oracle on every batch of a generated mutation stream.
//
// One global precondition guards the whole scheme: the bridge-end set. Pair
// End indices point into Problem.Ends, and per-realization baselines are
// reconstructed as |Ends| − |pairs|; if the mutation changed the ends
// (bridge.FindEnds on the new snapshot disagrees with the old), every
// realization's pair layout is invalidated at once and Repair falls back to
// a full rebuild, reported honestly in RepairStats.
package sketch

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lcrb/internal/core"
	"lcrb/internal/rng"
)

// ErrNoFootprints is returned (wrapped) by Repair when the sketch carries
// no per-realization footprints — built before footprint recording, or
// with Options.Footprints unset. Such a sketch can only be rebuilt.
var ErrNoFootprints = errors.New("sketch: set carries no footprints")

// RepairStats reports what a Repair did.
type RepairStats struct {
	// Samples is the realization count of the sketch.
	Samples int
	// Repaired counts realizations re-drawn because their footprint
	// intersected the dirty region; Kept counts the rest, carried over
	// untouched. Repaired + Kept == Samples unless FullRebuild.
	Repaired int
	Kept     int
	// FullRebuild reports that the incremental path was abandoned and the
	// sketch rebuilt whole; EndsChanged is the (only) reason.
	FullRebuild bool
	EndsChanged bool
}

// Repair patches a sketch after a graph mutation; see RepairContext.
func Repair(oldP, newP *core.Problem, set *Set, dirty []int32, version uint64, workers int) (*Set, *RepairStats, error) {
	return RepairContext(context.Background(), oldP, newP, set, dirty, version, workers)
}

// RepairContext returns a sketch current for newP at master version
// `version`, given the sketch `set` built for oldP and the dirty node set
// of every batch between the two problems' graphs (dyngraph.Summary
// DirtyNodes, or Master.DirtySince when several batches behind — the
// replay argument composes across a union of batches). Only realizations
// whose recorded footprint intersects dirty are re-drawn, from their
// original CRN seeds, serially deterministic for every workers value; the
// result is bit-for-bit the sketch BuildContext would produce against newP
// with the same seed, samples and hops, version-stamped and
// re-fingerprinted.
//
// The input set is never mutated. Kept pairs and footprints are shared
// with it (both are immutable by convention). Shard slices are rejected —
// the shard tier rebuilds slices from coordinates instead of repairing
// them.
func RepairContext(ctx context.Context, oldP, newP *core.Problem, set *Set, dirty []int32, version uint64, workers int) (*Set, *RepairStats, error) {
	if newP == nil {
		return nil, nil, fmt.Errorf("sketch: repair: nil new problem")
	}
	if set == nil {
		return nil, nil, fmt.Errorf("sketch: repair: nil set")
	}
	if set.ShardCount > 0 {
		return nil, nil, fmt.Errorf("sketch: repair: set is shard slice %d/%d; slices rebuild from coordinates, they do not repair",
			set.ShardIndex, set.ShardCount)
	}
	if err := set.Validate(oldP); err != nil {
		return nil, nil, fmt.Errorf("sketch: repair: old problem: %w", err)
	}
	if len(newP.Ends) == 0 {
		return nil, nil, core.ErrNoBridgeEnds
	}

	stats := &RepairStats{Samples: set.Samples}
	opts := Options{Seed: set.Seed, Samples: set.Samples, MaxHops: set.MaxHops}

	if !equalIDs(oldP.Ends, newP.Ends) {
		// Every pair's End index and every reconstructed baseline refers to
		// the old end set: the incremental path has no foothold. Rebuild.
		stats.FullRebuild, stats.EndsChanged = true, true
		stats.Repaired = set.Samples
		opts.Workers, opts.Footprints = workers, true
		rebuilt, err := BuildContext(ctx, newP, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("sketch: repair: full rebuild: %w", err)
		}
		rebuilt.Version = version
		return rebuilt, stats, nil
	}
	if len(set.Footprints) != set.Samples {
		return nil, nil, fmt.Errorf("sketch: repair: %d footprints for %d realizations: %w",
			len(set.Footprints), set.Samples, ErrNoFootprints)
	}

	// Mark the dirty region and pick the realizations whose footprint hits
	// it. Dirty ids may exceed the old node space (added nodes): no old
	// footprint contains those, which is exactly right — a fresh node's
	// edges also dirty its pre-existing endpoint.
	n := newP.Graph.NumNodes()
	dirtyMark := make([]bool, n)
	for _, v := range dirty {
		if v < 0 || v >= n {
			return nil, nil, fmt.Errorf("sketch: repair: dirty node %d out of range [0,%d)", v, n)
		}
		dirtyMark[v] = true
	}
	var redraw []int
	for r := 0; r < set.Samples; r++ {
		for _, v := range set.Footprints[r] {
			if int(v) < len(dirtyMark) && dirtyMark[v] {
				redraw = append(redraw, r)
				break
			}
		}
	}
	stats.Repaired = len(redraw)
	stats.Kept = set.Samples - len(redraw)

	// Re-derive the CRN seed stream — a pure function of Set.Seed — and
	// re-draw the hit realizations against the new snapshot, striped across
	// workers into index slots exactly like grow(), so the repaired sketch
	// is worker-count invariant.
	seedSrc := rng.New(set.Seed)
	realSeeds := make([]uint64, set.Samples)
	for i := range realSeeds {
		realSeeds[i] = seedSrc.Uint64()
	}
	type redrawn struct {
		pairs []Pair
		foot  []int32
	}
	results := make([]redrawn, len(redraw))
	errs := make([]error, len(redraw))
	drawOne := func(sc *scratch, slot int) {
		if err := ctx.Err(); err != nil {
			errs[slot] = err
			return
		}
		r := redraw[slot]
		pairs, _, foot := sc.sample(realSeeds[r], int32(r))
		results[slot] = redrawn{pairs: pairs, foot: foot}
	}
	smp := newSampler(newP, set.MaxHops, true)
	runStriped(len(redraw), workers, func(w, stride int) {
		sc := smp.newScratch()
		for slot := w; slot < len(redraw); slot += stride {
			drawOne(sc, slot)
			if errs[slot] != nil {
				return
			}
		}
	})
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
		return nil, nil, err
	}
	if cancelErr != nil {
		return nil, nil, cancelErr
	}

	// Reassemble in realization order: kept realizations share pairs and
	// footprint with the input set, re-drawn ones splice in. Baselines are
	// recoverable per realization as |Ends| − |pairs| — every end is either
	// baseline-safe or coverable — so the total recomputes exactly.
	starts := pairStarts(set)
	out := &Set{
		Samples:     set.Samples,
		Seed:        set.Seed,
		MaxHops:     set.MaxHops,
		NumEnds:     len(newP.Ends),
		Fingerprint: Fingerprint(newP, opts),
		Version:     version,
		Footprints:  make([][]int32, set.Samples),
	}
	next := 0 // cursor into redraw/results
	for r := 0; r < set.Samples; r++ {
		if next < len(redraw) && redraw[next] == r {
			out.Pairs = append(out.Pairs, results[next].pairs...)
			out.BaselinePairs += len(newP.Ends) - len(results[next].pairs)
			out.Footprints[r] = results[next].foot
			next++
			continue
		}
		old := set.Pairs[starts[r]:starts[r+1]]
		out.Pairs = append(out.Pairs, old...)
		out.BaselinePairs += len(oldP.Ends) - len(old)
		out.Footprints[r] = set.Footprints[r]
	}
	out.buildIndex(workers)
	return out, stats, nil
}

// pairStarts indexes set.Pairs by realization: pairs of realization r live
// at [starts[r], starts[r+1]). Pairs are stored in (realization, end)
// order by the assembly contract.
func pairStarts(set *Set) []int {
	starts := make([]int, set.Samples+1)
	i := 0
	for r := 0; r < set.Samples; r++ {
		starts[r] = i
		for i < len(set.Pairs) && int(set.Pairs[i].Realization) == r {
			i++
		}
	}
	starts[set.Samples] = i
	return starts
}

// runStriped runs fn(w, stride) on `workers` goroutines (inline when one),
// the worker-pool shape of grow().
func runStriped(items, workers int, fn func(w, stride int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		if items > 0 {
			fn(0, 1)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, workers)
		}()
	}
	wg.Wait()
}

// equalIDs reports element-wise equality of two id slices.
func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
