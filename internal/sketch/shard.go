// Shard-slice builds: the sketch side of the scatter-gather solve tier
// (internal/shardsolve). A shard slice is the restriction of a fixed
// Samples=N build to the realizations congruent to one residue class —
// shard i of n holds realizations {r : r ≡ i (mod n), r < N}.
//
// Sharding by realization id keeps every slice an honest sub-estimate:
// realizations are i.i.d. draws, so the pairs of any subset of them
// estimate σ̂ without bias, just with fewer samples (Tong et al.,
// arXiv:1701.02368 — the concentration analysis never cares which
// realizations survive, only how many). Losing a shard therefore degrades
// accuracy, not correctness, which is what lets the coordinator answer
// with an honestly tagged partial estimate instead of a 503.
//
// Bit-identity across shard counts holds by the PR-3 common-random-numbers
// argument: the realization seed stream is a pure function of Options.Seed,
// realization r's pairs are a pure function of (seed stream[r], problem),
// and a slice samples exactly its own realizations from that stream. The
// union of the n slices' pairs, ordered by (realization, end), is
// byte-for-byte the single build's Pairs for every n.
package sketch

import (
	"context"
	"fmt"
	"time"

	"lcrb/internal/core"
)

// ShardRealizations returns how many of the total realizations shard
// index of count holds: |{r : r ≡ index (mod count), r < total}|. It is
// the coordinator's loss-accounting primitive — realizations held is a
// pure function of the shard coordinates, so a dead shard's contribution
// is known without asking it.
func ShardRealizations(total, index, count int) int {
	if total <= 0 || count <= 0 || index < 0 || index >= count {
		return 0
	}
	return (total - index + count - 1) / count
}

// BuildShardContext builds the shard slice (index, count) of the fixed
// build that Options describes: the Pairs of realizations ≡ index
// (mod count), with Pair.Realization keeping the global realization id.
// The returned Set records the slice coordinates in ShardIndex/ShardCount,
// its realization count in ShardSamples, and carries the shard-qualified
// fingerprint (see ShardFingerprint), so a slice persisted through Save is
// never confused with the full sketch or another slice on Load.
func BuildShardContext(ctx context.Context, p *core.Problem, opts Options, index, count int) (*Set, error) {
	if count < 1 {
		return nil, fmt.Errorf("sketch: shard build: count = %d must be positive", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("sketch: shard build: index = %d out of [0,%d)", index, count)
	}
	if p == nil {
		return nil, fmt.Errorf("sketch: shard build: nil problem")
	}
	if opts.Samples < 0 {
		return nil, fmt.Errorf("sketch: shard build: samples = %d must not be negative", opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = DefaultSamples
	}
	// Slices never repair — on graph mutation the tier rebuilds them from
	// coordinates against the new snapshot — so footprint recording is
	// dead weight here; drop it (the fingerprint ignores it either way).
	opts.Footprints = false
	if opts.MaxHops == 0 {
		opts.MaxHops = core.DefaultGreedyHops
	}
	if opts.MaxHops < 0 {
		return nil, fmt.Errorf("sketch: shard build: max hops = %d must not be negative", opts.MaxHops)
	}
	if len(p.Ends) == 0 {
		return nil, core.ErrNoBridgeEnds
	}

	b := newSetBuilder(p, opts, 1)
	// Draw the full seed stream so realization r's seed is the one the
	// single build would use, then sample only this shard's residues.
	for len(b.realSeeds) < opts.Samples {
		b.realSeeds = append(b.realSeeds, b.seedSrc.Uint64())
	}
	set := &Set{
		Samples:      opts.Samples,
		Seed:         opts.Seed,
		MaxHops:      opts.MaxHops,
		NumEnds:      len(p.Ends),
		ShardIndex:   index,
		ShardCount:   count,
		ShardSamples: ShardRealizations(opts.Samples, index, count),
		Fingerprint:  ShardFingerprint(p, opts, index, count),
	}
	sc := b.smp.newScratch()
	for r := index; r < opts.Samples; r += count {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !b.deadline.IsZero() && !b.deadline.After(time.Now()) {
			return nil, fmt.Errorf("%w: shard build wall-clock budget spent before realization %d",
				core.ErrBudgetExhausted, r)
		}
		if err := opts.Fault.Check(); err != nil {
			return nil, fmt.Errorf("sketch: shard build realization %d: %w", r, err)
		}
		pairs, base, _ := sc.sample(b.realSeeds[r], int32(r))
		set.BaselinePairs += base
		set.Pairs = append(set.Pairs, pairs...)
	}
	set.buildIndex()
	return set, nil
}

// ShardFingerprint is the fingerprint of shard index of count: the full
// build's fingerprint with the shard coordinates appended. Slices of the
// same build but different coordinates never validate against each other,
// and no slice validates against the unsharded sketch — the store-naming
// guard that keeps a coordinator from serving a fraction of the pool as
// the whole estimate.
func ShardFingerprint(p *core.Problem, opts Options, index, count int) string {
	return fmt.Sprintf("%s shard=%d/%d", Fingerprint(p, opts), index, count)
}
