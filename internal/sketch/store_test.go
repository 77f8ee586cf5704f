package sketch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 32, Seed: 9}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nested", "sketch.json")
	if err := Save(path, set); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, p, Fingerprint(p, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatal("loaded sketch differs from saved sketch")
	}
	// The loaded sketch serves solves directly.
	res, err := SolveGreedyRIS(p, got, SolveOptions{Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtectedEnds != set.Sigma(res.Protectors) {
		t.Fatal("loaded sketch scores differently than the built one")
	}
}

func TestStoreDeterministicBytes(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := Save(a, set); err != nil {
		t.Fatal(err)
	}
	if err := Save(b, set); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("re-saving the same sketch wrote different bytes")
	}
}

func TestStoreRejectsStaleAndMissing(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 32, Seed: 9}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sketch.json")
	if err := Save(path, set); err != nil {
		t.Fatal(err)
	}

	// Wrong fingerprint (e.g. a different seed): stale, never served.
	if _, err := Load(path, p, Fingerprint(p, Options{Samples: 32, Seed: 10})); !errors.Is(err, ErrStale) {
		t.Fatalf("fingerprint mismatch returned %v, want ErrStale", err)
	}
	// Missing file: a cold store, distinguishable from corruption.
	if _, err := Load(filepath.Join(dir, "absent.json"), p, set.Fingerprint); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file returned %v, want os.ErrNotExist", err)
	}
	// Version skew: stale.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if skewed == string(data) {
		t.Fatal("version marker not found in store file")
	}
	if err := os.WriteFile(path, []byte(skewed), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, p, set.Fingerprint); !errors.Is(err, ErrStale) {
		t.Fatalf("version skew returned %v, want ErrStale", err)
	}
	// Corruption: an error, but neither stale nor missing.
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, p, set.Fingerprint); err == nil || errors.Is(err, ErrStale) || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file returned %v, want a plain decode error", err)
	}
}

func TestValidateDetectsProblemDrift(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	other := testProblem(t, 400, 50, 42)
	set, err := Build(p, Options{Samples: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(p); err != nil {
		t.Fatalf("sketch stale against its own problem: %v", err)
	}
	if err := set.Validate(other); !errors.Is(err, ErrStale) {
		t.Fatalf("drifted problem returned %v, want ErrStale", err)
	}
	if err := set.Validate(nil); err == nil || errors.Is(err, ErrStale) {
		t.Fatalf("nil problem returned %v, want a plain validation error", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	other := testProblem(t, 400, 50, 42)
	base := Fingerprint(p, Options{Samples: 32, Seed: 9})
	for name, fp := range map[string]string{
		"seed":    Fingerprint(p, Options{Samples: 32, Seed: 10}),
		"samples": Fingerprint(p, Options{Samples: 64, Seed: 9}),
		"hops":    Fingerprint(p, Options{Samples: 32, Seed: 9, MaxHops: 5}),
		"problem": Fingerprint(other, Options{Samples: 32, Seed: 9}),
	} {
		if fp == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	// Defaults normalize: explicit defaults and zero values agree.
	if Fingerprint(p, Options{Seed: 9}) != Fingerprint(p, Options{Samples: DefaultSamples, Seed: 9, MaxHops: 31}) {
		t.Error("zero options and explicit defaults fingerprint differently")
	}
}

// TestFingerprintConcurrent fingerprints one fresh graph from several
// goroutines at once — under -race, the first call's memoized adjacency
// digest must publish safely — and holds every string to the digest
// formula fingerprints have always embedded, recomputed here row by row,
// so stores written before the memo still load.
func TestFingerprintConcurrent(t *testing.T) {
	p := testProblem(t, 300, 40, 43)
	g := p.Graph
	h := mix64(uint64(g.NumNodes()))
	for u := int32(0); u < g.NumNodes(); u++ {
		h = mix64(h ^ uint64(len(g.Out(u))))
		for _, v := range g.Out(u) {
			h = mix64(h ^ uint64(uint32(v)))
		}
	}
	want := fmt.Sprintf("sketch v%d model=opoao graph=%016x rumors=%016x ends=%016x seed=9 samples=%d hops=%d",
		StoreVersion, h, sliceHash(p.Rumors), sliceHash(p.Ends), DefaultSamples, 31)

	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Fingerprint(p, Options{Seed: 9})
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d: Fingerprint = %q, want %q", i, fp, want)
		}
	}
}

// Satellite: the dynamic-graph version binding. A mutation batch and its
// inverse restore the same adjacency — so the fingerprint matches — while
// the store was only patched to the earlier version. LoadVersioned must
// reject that store with ErrStale and name both versions.
func TestLoadVersionedRejectsTrailingVersion(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 16, Seed: 5, Footprints: true}
	set, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	set.Version = 3
	path := filepath.Join(t.TempDir(), "sketch.json")
	if err := Save(path, set); err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, opts)

	got, err := LoadVersioned(path, p, fp, 3)
	if err != nil {
		t.Fatalf("load at matching version: %v", err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatal("versioned load differs from saved sketch")
	}
	if got.Footprints == nil || len(got.Footprints) != 16 {
		t.Fatalf("footprints did not survive the round trip: %d", len(got.Footprints))
	}

	_, err = LoadVersioned(path, p, fp, 7)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("trailing version: got %v, want ErrStale", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "version 3") || !strings.Contains(msg, "version 7") {
		t.Fatalf("stale-version error must carry both versions, got %q", msg)
	}
	// Wrong fingerprint still loses to the fingerprint check first.
	if _, err := LoadVersioned(path, p, "bogus", 3); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong fingerprint: got %v, want ErrStale", err)
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

	wrong := Fingerprint(p, Options{Samples: opts.Samples, Seed: opts.Seed + 1})
	_, err = Load(path, p, wrong)
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
	_, err = Load(path, p, wrong)
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

// TestLoadRejectsLegacyShardSlice writes a store in the shape older
// versions saved for one slice of a realization-partitioned build — the
// realizations ≡ 1 (mod 2), the keys shardIndex/shardCount/shardSamples,
// and a fingerprint qualified with " shard=1/2" — and checks that it is
// never served as the full sketch: under the full-build fingerprint it is
// stale, and relabelled with that fingerprint its pair counts fail the
// content checks.
func TestLoadRejectsLegacyShardSlice(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := Options{Samples: 16, Seed: 7}
	full, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, opts)
	legacy := func(fingerprint string) []byte {
		t.Helper()
		var pairs []Pair
		for _, pair := range full.Pairs {
			if pair.Realization%2 == 1 {
				pairs = append(pairs, pair)
			}
		}
		held := opts.Samples / 2
		data, err := json.Marshal(map[string]any{
			"version": StoreVersion,
			"set": map[string]any{
				"samples":       full.Samples,
				"seed":          full.Seed,
				"maxHops":       full.MaxHops,
				"numEnds":       full.NumEnds,
				"fingerprint":   fingerprint,
				"baselinePairs": held*full.NumEnds - len(pairs),
				"pairs":         pairs,
				"shardIndex":    1,
				"shardCount":    2,
				"shardSamples":  held,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	path := filepath.Join(t.TempDir(), "slice.json")
	if err := os.WriteFile(path, legacy(fp+" shard=1/2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, p, fp); !errors.Is(err, ErrStale) {
		t.Fatalf("legacy slice store returned %v, want ErrStale", err)
	}
	if err := os.WriteFile(path, legacy(fp), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(path, p, fp); err == nil {
		t.Fatalf("relabelled slice loaded as the full sketch (%d pairs of %d)", len(got.Pairs), len(full.Pairs))
	}
}
