package sketch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestShardRealizations(t *testing.T) {
	tests := []struct {
		total, index, count, want int
	}{
		{10, 0, 1, 10},
		{10, 0, 2, 5},
		{10, 1, 2, 5},
		{10, 0, 3, 4}, // 0,3,6,9
		{10, 1, 3, 3}, // 1,4,7
		{10, 2, 3, 3}, // 2,5,8
		{3, 2, 5, 1},  // 2
		{3, 4, 5, 0},  // none
		{0, 0, 3, 0},
		{10, -1, 3, 0},
		{10, 3, 3, 0},
		{10, 0, 0, 0},
	}
	for _, tc := range tests {
		if got := ShardRealizations(tc.total, tc.index, tc.count); got != tc.want {
			t.Errorf("ShardRealizations(%d, %d, %d) = %d, want %d",
				tc.total, tc.index, tc.count, got, tc.want)
		}
	}
	// The residue classes partition the pool for every count.
	for count := 1; count <= 7; count++ {
		sum := 0
		for i := 0; i < count; i++ {
			sum += ShardRealizations(33, i, count)
		}
		if sum != 33 {
			t.Errorf("count %d: shard realizations sum to %d, want 33", count, sum)
		}
	}
}

// TestShardUnionBitIdentity is the CRN partition argument, executed: for
// every shard count the union of the slices' pairs, ordered by
// (realization, end), equals the single build's Pairs exactly, and the
// baseline pairs and per-slice realization counts add up.
func TestShardUnionBitIdentity(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 48, Seed: 7}
	full, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 5} {
		var union []Pair
		baseline, realizations := 0, 0
		for i := 0; i < count; i++ {
			slice, err := BuildShardContext(context.Background(), p, opts, i, count)
			if err != nil {
				t.Fatalf("count %d shard %d: %v", count, i, err)
			}
			if slice.ShardIndex != i || slice.ShardCount != count {
				t.Fatalf("count %d shard %d: coordinates (%d, %d)", count, i, slice.ShardIndex, slice.ShardCount)
			}
			if want := ShardRealizations(opts.Samples, i, count); slice.ShardSamples != want {
				t.Fatalf("count %d shard %d: ShardSamples = %d, want %d", count, i, slice.ShardSamples, want)
			}
			union = append(union, slice.Pairs...)
			baseline += slice.BaselinePairs
			realizations += slice.ShardSamples
		}
		sort.Slice(union, func(a, b int) bool {
			if union[a].Realization != union[b].Realization {
				return union[a].Realization < union[b].Realization
			}
			return union[a].End < union[b].End
		})
		if !reflect.DeepEqual(union, full.Pairs) {
			t.Fatalf("count %d: union of shard pairs differs from the single build", count)
		}
		if baseline != full.BaselinePairs {
			t.Fatalf("count %d: baseline %d, want %d", count, baseline, full.BaselinePairs)
		}
		if realizations != full.Samples {
			t.Fatalf("count %d: realizations %d, want %d", count, realizations, full.Samples)
		}
	}
}

func TestShardFingerprintDistinct(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 32, Seed: 7}
	seen := map[string]bool{Fingerprint(p, opts): true}
	for _, coords := range [][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}} {
		fp := ShardFingerprint(p, opts, coords[0], coords[1])
		if seen[fp] {
			t.Fatalf("shard %d/%d fingerprint collides: %q", coords[0], coords[1], fp)
		}
		seen[fp] = true
	}
}

func TestShardBuildValidation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	if _, err := BuildShardContext(context.Background(), p, Options{Samples: 32}, -1, 3); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := BuildShardContext(context.Background(), p, Options{Samples: 32}, 3, 3); err == nil {
		t.Fatal("index >= count accepted")
	}
	if _, err := BuildShardContext(context.Background(), p, Options{Samples: 32}, 0, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := BuildShardContext(context.Background(), p, Options{Epsilon: 0.2}, 0, 2); err == nil {
		t.Fatal("adaptive sizing accepted for a shard build")
	}
	if _, err := BuildShardContext(context.Background(), nil, Options{Samples: 32}, 0, 2); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestShardStoreRoundTrip persists a slice and reloads it under its
// shard-qualified fingerprint; the wrong coordinates must be rejected as
// stale, never served.
func TestShardStoreRoundTrip(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 32, Seed: 7}
	slice, err := BuildShardContext(context.Background(), p, opts, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := slice.Validate(p); err != nil {
		t.Fatalf("built slice fails Validate: %v", err)
	}
	path := filepath.Join(t.TempDir(), "shard.json")
	if err := Save(path, slice); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, ShardFingerprint(p, opts, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, slice) {
		t.Fatal("loaded slice differs from the built one")
	}
	if _, err := Load(path, ShardFingerprint(p, opts, 0, 3)); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong shard index returned %v, want ErrStale", err)
	}
	if _, err := Load(path, Fingerprint(p, opts)); !errors.Is(err, ErrStale) {
		t.Fatalf("slice loaded as the full sketch returned %v, want ErrStale", err)
	}
}

// TestErrStaleTextCarriesBothFingerprints is the regression for the
// once-opaque staleness report: every ErrStale path — Load fingerprint
// mismatch, Load version skew, Validate drift — must name both the found
// and the expected fingerprint in the error text.
func TestErrStaleTextCarriesBothFingerprints(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 16, Seed: 7}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketch.json")
	if err := Save(path, set); err != nil {
		t.Fatal(err)
	}

	wrong := ShardFingerprint(p, opts, 0, 2)
	_, err = Load(path, wrong)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("Load returned %v, want ErrStale", err)
	}
	for _, fp := range []string{set.Fingerprint, wrong} {
		if !strings.Contains(err.Error(), fp) {
			t.Fatalf("Load stale text %q misses fingerprint %q", err, fp)
		}
	}

	// Version skew: rewrite the envelope with a bumped version; the text
	// must still carry both fingerprints, not just the version numbers.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(data), `{"version":1`, `{"version":99`, 1)
	if skewed == string(data) {
		t.Fatal("version substring not found in store bytes")
	}
	if err := os.WriteFile(path, []byte(skewed), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path, wrong)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("version skew returned %v, want ErrStale", err)
	}
	for _, fp := range []string{set.Fingerprint, wrong} {
		if !strings.Contains(err.Error(), fp) {
			t.Fatalf("version-skew stale text %q misses fingerprint %q", err, fp)
		}
	}

	// Validate drift: the problem changed under the sketch.
	other := testProblem(t, 300, 40, 43)
	verr := set.Validate(other)
	if !errors.Is(verr, ErrStale) {
		t.Fatalf("Validate returned %v, want ErrStale", verr)
	}
	if !strings.Contains(verr.Error(), set.Fingerprint) {
		t.Fatalf("Validate stale text %q misses the found fingerprint", verr)
	}
	wantFP := Fingerprint(other, Options{Seed: set.Seed, Samples: set.Samples, MaxHops: set.MaxHops})
	if !strings.Contains(verr.Error(), wantFP) {
		t.Fatalf("Validate stale text %q misses the expected fingerprint", verr)
	}
}

func TestCertifyBound(t *testing.T) {
	// λ(0.1, 0.05) ≈ (2 + 0.0667)·ln(40)/0.01 ≈ 762; n·x̂ crosses it
	// between n = 1000 (x̂ 0.5 → 500) and n = 2000 (→ 1000).
	met, err := CertifyBound(0.1, 0.05, 2000, 0.5)
	if err != nil || !met {
		t.Fatalf("CertifyBound(2000, 0.5) = %v, %v, want true", met, err)
	}
	met, err = CertifyBound(0.1, 0.05, 1000, 0.5)
	if err != nil || met {
		t.Fatalf("CertifyBound(1000, 0.5) = %v, %v, want false", met, err)
	}
	if _, err := CertifyBound(0, 0.05, 100, 0.5); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := CertifyBound(0.1, 1, 100, 0.5); err == nil {
		t.Fatal("delta 1 accepted")
	}
	if _, err := CertifyBound(0.1, 0.05, 100, 1.5); err == nil {
		t.Fatal("coverage fraction 1.5 accepted")
	}
	if met, err := CertifyBound(0.1, 0.05, 1<<40, 0); err != nil || met {
		t.Fatalf("zero coverage certified: %v, %v", met, err)
	}
}
