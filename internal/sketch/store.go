package sketch

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"lcrb/internal/checkpoint"
	"lcrb/internal/core"
)

// StoreVersion identifies the on-disk sketch schema; bump on incompatible
// change.
const StoreVersion = 1

// ErrStale is returned (wrapped) when a sketch's fingerprint does not
// match the problem or build options it is asked to serve — a sketch built
// for a different graph, rumor set, model horizon, seed or sample count.
// Test with errors.Is. Stale sketches are always rejected, never silently
// served.
var ErrStale = errors.New("sketch: fingerprint mismatch")

// storeFile is the on-disk envelope of a Set.
type storeFile struct {
	Version int `json:"version"`
	Set     Set `json:"set"`
}

// Fingerprint binds a sketch to everything that shapes its contents: a
// hash of the graph's full adjacency structure, the rumor seed set, the
// bridge ends, the diffusion model, and the build's seed, sample count and
// hop horizon. Two problems with equal fingerprints produce bit-identical
// sketches; any drift — a regenerated graph, a different rumor draw, new
// build options — changes the fingerprint and invalidates stored
// sketches. The adjacency hash is graph.Digest, memoized per immutable
// graph, so after a graph's first fingerprint the rest cost O(|R| + |B|).
func Fingerprint(p *core.Problem, opts Options) string {
	maxHops := opts.MaxHops
	if maxHops == 0 {
		maxHops = core.DefaultGreedyHops
	}
	samples := opts.Samples
	if samples == 0 {
		samples = DefaultSamples
	}
	return fmt.Sprintf("sketch v%d model=opoao graph=%016x rumors=%016x ends=%016x seed=%d samples=%d hops=%d",
		StoreVersion, p.Graph.Digest(), sliceHash(p.Rumors), sliceHash(p.Ends),
		opts.Seed, samples, maxHops)
}

// sliceHash digests an ordered id slice.
func sliceHash(s []int32) uint64 {
	h := mix64(uint64(len(s)))
	for _, v := range s {
		h = mix64(h ^ uint64(uint32(v)))
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixer. Not cryptographic — the fingerprint guards against operational
// staleness, not adversaries.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Validate checks that the sketch was built for exactly this problem with
// its recorded build options, returning an error wrapping ErrStale on any
// mismatch. The error text always carries both fingerprints — the one the
// sketch stores and the one the problem expects — so a shard operator can
// read which of graph/rumors/ends/sizing/shard coordinates drifted instead
// of diffing stores by hand.
func (s *Set) Validate(p *core.Problem) error {
	if p == nil {
		return fmt.Errorf("sketch: validate: nil problem")
	}
	opts := Options{Seed: s.Seed, Samples: s.Samples, MaxHops: s.MaxHops}
	want := Fingerprint(p, opts)
	if s.ShardCount > 0 {
		// Shard slice: the fingerprint binds the shard coordinates too, so
		// a slice never validates as the full sketch or another slice.
		want = ShardFingerprint(p, opts, s.ShardIndex, s.ShardCount)
	}
	if s.Fingerprint != want {
		return fmt.Errorf("sketch: validate: found fingerprint %q, expected %q: %w", s.Fingerprint, want, ErrStale)
	}
	if s.NumEnds != len(p.Ends) {
		return fmt.Errorf("sketch: validate: set records %d bridge ends, problem has %d", s.NumEnds, len(p.Ends))
	}
	return nil
}

// check verifies the invariants every built Set meets, so a decoded store
// can be trusted before its coverage index is sized from it: positive
// sample and end counts, pairs in strictly increasing (realization, end)
// order within range (and within the slice's residue class), every RR set
// a non-empty strictly ascending list of node ids in [0, numNodes), pair
// and baseline counts summing to the sampled total, and footprints, when
// present, one strictly ascending id list per realization.
func (s *Set) check(numNodes int32) error {
	if s.Samples < 1 || s.Samples > math.MaxInt32 || s.NumEnds < 1 || s.NumEnds > math.MaxInt32 {
		return fmt.Errorf("sketch: corrupt store: samples = %d, ends = %d out of [1, 2^31)", s.Samples, s.NumEnds)
	}
	held := s.Samples
	switch {
	case s.ShardCount == 0 && s.ShardIndex == 0 && s.ShardSamples == 0:
	case s.ShardCount > 0 && s.ShardIndex >= 0 && s.ShardIndex < s.ShardCount &&
		s.ShardSamples == ShardRealizations(s.Samples, s.ShardIndex, s.ShardCount):
		held = s.ShardSamples
	default:
		return fmt.Errorf("sketch: corrupt store: shard %d/%d holding %d of %d realizations", s.ShardIndex, s.ShardCount, s.ShardSamples, s.Samples)
	}
	for i, pair := range s.Pairs {
		r, e := pair.Realization, pair.End
		if r < 0 || int(r) >= s.Samples || e < 0 || int(e) >= s.NumEnds {
			return fmt.Errorf("sketch: corrupt store: pair %d: (realization %d, end %d) out of range", i, r, e)
		}
		if s.ShardCount > 0 && int(r)%s.ShardCount != s.ShardIndex {
			return fmt.Errorf("sketch: corrupt store: pair %d: realization %d outside shard %d/%d", i, r, s.ShardIndex, s.ShardCount)
		}
		if i > 0 {
			prev := s.Pairs[i-1]
			if r < prev.Realization || r == prev.Realization && e <= prev.End {
				return fmt.Errorf("sketch: corrupt store: pair %d: (realization %d, end %d) out of order", i, r, e)
			}
		}
		if len(pair.Nodes) == 0 || !ascendingIDs(pair.Nodes, numNodes) {
			return fmt.Errorf("sketch: corrupt store: pair %d: RR set is not a non-empty ascending list of node ids in [0,%d)", i, numNodes)
		}
	}
	if s.BaselinePairs+len(s.Pairs) != held*s.NumEnds {
		return fmt.Errorf("sketch: corrupt store: %d baseline + %d coverable pairs, want %d realizations × %d ends",
			s.BaselinePairs, len(s.Pairs), held, s.NumEnds)
	}
	if len(s.Footprints) > 0 && (s.ShardCount > 0 || len(s.Footprints) != s.Samples) {
		return fmt.Errorf("sketch: corrupt store: %d footprints for %d realizations", len(s.Footprints), s.Samples)
	}
	for r, fp := range s.Footprints {
		if !ascendingIDs(fp, numNodes) {
			return fmt.Errorf("sketch: corrupt store: footprint %d is not an ascending list of node ids in [0,%d)", r, numNodes)
		}
	}
	return nil
}

// ascendingIDs reports whether ids is strictly ascending within [0, n).
func ascendingIDs(ids []int32, n int32) bool {
	prev := int32(-1)
	for _, v := range ids {
		if v <= prev || v >= n {
			return false
		}
		prev = v
	}
	return true
}

// Save writes the sketch atomically and durably to path, using the same
// write-temp, fsync-file, rename, fsync-directory discipline as
// internal/checkpoint: a reader at path observes either the previous
// sketch or the new one in full, never a torn write, and the new sketch
// survives a crash. Save output is a pure function of the Set, so
// re-building and re-saving an identical sketch rewrites identical bytes.
func Save(path string, s *Set) error {
	if path == "" {
		return fmt.Errorf("sketch: save: empty path")
	}
	if s == nil {
		return fmt.Errorf("sketch: save: nil set")
	}
	data, err := json.Marshal(storeFile{Version: StoreVersion, Set: *s})
	if err != nil {
		return fmt.Errorf("sketch: save: encode: %w", err)
	}
	data = append(data, '\n')
	if err := checkpoint.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("sketch: save: %w", err)
	}
	return nil
}

// Load reads the sketch of p from path. Before rebuilding its coverage
// index it verifies that the store carries the expected fingerprint, that
// it validates against p (see Validate), and that its contents are a Set a
// build could have produced (see check): node ids bounded by p's graph,
// pairs in order and counts that add up. A missing file returns an error
// wrapping os.ErrNotExist (a cold store, not corruption); a fingerprint or
// version mismatch returns an error wrapping ErrStale so the caller can
// rebuild rather than serve estimates for the wrong problem; a store that
// fails the content checks returns a plain error.
func Load(path string, p *core.Problem, fingerprint string) (*Set, error) {
	if path == "" {
		return nil, fmt.Errorf("sketch: load: empty path")
	}
	if p == nil {
		return nil, fmt.Errorf("sketch: load: nil problem")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sketch: load: %w", err)
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sketch: load %s: decode: %w", path, err)
	}
	if f.Version != StoreVersion {
		// Version drift is staleness too, and the fingerprints still tell
		// the operator which sketch the file was for — keep both in the
		// text rather than leaving the mismatch opaque.
		return nil, fmt.Errorf("sketch: load %s: version %d (want %d), found fingerprint %q, expected %q: %w",
			path, f.Version, StoreVersion, f.Set.Fingerprint, fingerprint, ErrStale)
	}
	if f.Set.Fingerprint != fingerprint {
		return nil, fmt.Errorf("sketch: load %s: found fingerprint %q, expected %q: %w", path, f.Set.Fingerprint, fingerprint, ErrStale)
	}
	set := f.Set
	if err := set.Validate(p); err != nil {
		return nil, fmt.Errorf("sketch: load %s: %w", path, err)
	}
	if err := set.check(p.Graph.NumNodes()); err != nil {
		return nil, fmt.Errorf("sketch: load %s: %w", path, err)
	}
	set.buildIndex(1)
	return &set, nil
}

// LoadVersioned is Load plus the dynamic-graph version binding: the store
// must also be current for master version `version`. A fingerprint can
// match while the version trails — a mutation batch and its inverse
// restore the same adjacency (same graph hash) while the store was patched
// only to the earlier version — and a dynamic daemon must treat that store
// as stale, never serve it silently. The mismatch error wraps ErrStale and
// carries both versions.
func LoadVersioned(path string, p *core.Problem, fingerprint string, version uint64) (*Set, error) {
	set, err := Load(path, p, fingerprint)
	if err != nil {
		return nil, err
	}
	if set.Version != version {
		return nil, fmt.Errorf("sketch: load %s: store at graph version %d, master at version %d: %w",
			path, set.Version, version, ErrStale)
	}
	return set, nil
}
