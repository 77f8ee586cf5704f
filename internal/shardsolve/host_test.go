package shardsolve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lcrb/internal/sketch"
)

// hostFixture builds one host over shard 0 of 2 plus the slice itself
// for direct inspection.
func hostFixture(t *testing.T) (*Host, *sketch.Set) {
	t.Helper()
	p := testProblem(t, 300, 40, 41)
	slice, err := sketch.BuildShardContext(context.Background(), p, sketch.Options{Samples: 32, Seed: 7}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewHost(StaticProvider(slice)), slice
}

// gains asks the host for one candidate's marginal gain under a prefix.
func gains(t *testing.T, h *Host, id string, committed []int32, u int32) int {
	t.Helper()
	resp, err := h.Serve(&Request{
		Op: OpGains, SolveID: id, Shard: 0, Count: 2,
		Committed: committed, Candidates: []int32{u},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Gains[0]
}

// commit sends one commit and returns the reported gain.
func commit(t *testing.T, h *Host, id string, committed []int32, u int32) int {
	t.Helper()
	resp, err := h.Serve(&Request{
		Op: OpCommit, SolveID: id, Shard: 0, Count: 2,
		Committed: committed, Node: u,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Gain
}

// pickNodes returns the two highest-round-0-count candidates of a slice.
func pickNodes(t *testing.T, slice *sketch.Set) (a, b int32) {
	t.Helper()
	cands := slice.Candidates()
	if len(cands) < 2 {
		t.Skip("slice too sparse for session tests")
	}
	bestA, bestB := -1, -1
	for _, u := range cands {
		c := slice.PairCount(u)
		if bestA < 0 || c > slice.PairCount(a) {
			a, bestA, b, bestB = u, c, a, bestA
		} else if bestB < 0 || c > slice.PairCount(b) {
			b, bestB = u, c
		}
	}
	return a, b
}

// TestHostCommitIdempotent replays a commit (a hedged duplicate): the
// second delivery must answer from the gain log without double-counting.
func TestHostCommitIdempotent(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)

	g1 := commit(t, h, "s", nil, a)
	if again := commit(t, h, "s", nil, a); again != g1 {
		t.Fatalf("replayed commit gain %d, first delivery %d", again, g1)
	}
	// State must still be exactly one commit deep: b's gain under prefix
	// {a} matches a fresh session's.
	want := gains(t, h, "fresh", []int32{a}, b)
	if got := gains(t, h, "s", []int32{a}, b); got != want {
		t.Fatalf("gain after replay %d, want %d", got, want)
	}
}

// TestHostRebuildsOnDivergence hands the host a prefix that contradicts
// its session: it must rebuild from the request's prefix, not trust its
// own state.
func TestHostRebuildsOnDivergence(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)

	commit(t, h, "s", nil, a)
	// The coordinator's story is now "b was first" — divergent.
	got := gains(t, h, "s", []int32{b}, a)
	want := gains(t, h, "fresh", []int32{b}, a)
	if got != want {
		t.Fatalf("gain after divergent rebuild %d, want %d", got, want)
	}
}

// TestHostAheadOfRequest replays a gains request from before the host's
// latest commit: the host must rewind (rebuild) to the shorter prefix.
func TestHostAheadOfRequest(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)

	commit(t, h, "s", nil, a)
	commit(t, h, "s", []int32{a}, b)
	got := gains(t, h, "s", []int32{a}, b)
	want := gains(t, h, "fresh", []int32{a}, b)
	if got != want {
		t.Fatalf("gain after rewind %d, want %d", got, want)
	}
}

// TestHostRestartRecovery restarts the host mid-session: the next
// request's prefix rebuilds the session and answers identically.
func TestHostRestartRecovery(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)

	commit(t, h, "s", nil, a)
	before := gains(t, h, "s", []int32{a}, b)
	h.Restart()
	if after := gains(t, h, "s", []int32{a}, b); after != before {
		t.Fatalf("gain after restart %d, want %d", after, before)
	}
}

// TestHostForgetDropsSession checks OpForget frees the session and a
// later request rebuilds it from the prefix.
func TestHostForgetDropsSession(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)

	commit(t, h, "s", nil, a)
	if _, err := h.Serve(&Request{Op: OpForget, SolveID: "s", Shard: 0, Count: 2}); err != nil {
		t.Fatal(err)
	}
	want := gains(t, h, "fresh", []int32{a}, b)
	if got := gains(t, h, "s", []int32{a}, b); got != want {
		t.Fatalf("gain after forget %d, want %d", got, want)
	}
}

// TestHostInitCounts checks OpInit reports the slice metadata and every
// candidate's round-0 pair count in ascending node order.
func TestHostInitCounts(t *testing.T) {
	h, slice := hostFixture(t)
	resp, err := h.Serve(&Request{Op: OpInit, SolveID: "s", Shard: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Samples != slice.Samples || resp.NumEnds != slice.NumEnds ||
		resp.ShardSamples != slice.ShardSamples || resp.BaselinePairs != slice.BaselinePairs {
		t.Fatalf("init metadata %+v disagrees with slice", resp)
	}
	wantNodes := slice.Candidates()
	if len(resp.Counts) != len(wantNodes) {
		t.Fatalf("%d counts, want %d", len(resp.Counts), len(wantNodes))
	}
	for i, nc := range resp.Counts {
		if nc.Node != wantNodes[i] || nc.Pairs != slice.PairCount(nc.Node) {
			t.Fatalf("count[%d] = %+v, want node %d pairs %d",
				i, nc, wantNodes[i], slice.PairCount(wantNodes[i]))
		}
	}
	if !sortedAsc(resp.Counts) {
		t.Fatal("init counts not ascending by node")
	}
}

func sortedAsc(counts []NodeCount) bool {
	for i := 1; i < len(counts); i++ {
		if counts[i-1].Node >= counts[i].Node {
			return false
		}
	}
	return true
}

// TestStaticProviderFullSet checks an unsharded set is served as shard
// 0 of 1 and nothing else.
func TestStaticProviderFullSet(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	full, err := sketch.Build(p, sketch.Options{Samples: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prov := StaticProvider(full)
	got, err := prov(0, 1)
	if err != nil || got != full {
		t.Fatalf("full set as 0/1: %v, %v", got, err)
	}
	if _, err := prov(0, 2); err == nil {
		t.Fatal("full set served as shard 0/2")
	}
	if _, err := prov(1, 1); err == nil {
		t.Fatal("full set served as shard 1/1")
	}
}

// TestHostErrors covers the request validation and provider error paths.
func TestHostErrors(t *testing.T) {
	h, _ := hostFixture(t)
	if _, err := h.Serve(nil); err == nil {
		t.Fatal("nil request accepted")
	}
	if _, err := h.Serve(&Request{Op: OpInit, Shard: 2, Count: 2}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := h.Serve(&Request{Op: OpInit, Shard: 0, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := h.Serve(&Request{Op: "bogus", Shard: 0, Count: 2}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// The fixture's provider only holds shard 0/2.
	if _, err := h.Serve(&Request{Op: OpInit, Shard: 1, Count: 2}); err == nil {
		t.Fatal("missing slice served")
	}
	bad := NewHost(func(index, count int) (*sketch.Set, error) {
		return nil, errors.New("store offline")
	})
	if _, err := bad.Serve(&Request{Op: OpInit, Shard: 0, Count: 1}); err == nil {
		t.Fatal("provider failure not surfaced")
	}
	lying := NewHost(func(index, count int) (*sketch.Set, error) {
		return &sketch.Set{ShardIndex: 1, ShardCount: 3}, nil
	})
	if _, err := lying.Serve(&Request{Op: OpInit, Shard: 0, Count: 3}); err == nil {
		t.Fatal("mismatched slice coordinates accepted")
	}
	none := NewHost(nil)
	if _, err := none.Serve(&Request{Op: OpInit, Shard: 0, Count: 1}); err == nil {
		t.Fatal("nil provider host served a slice")
	}
}

// TestHostSessionsIndependent checks two solve ids never share covered
// state.
func TestHostSessionsIndependent(t *testing.T) {
	h, slice := hostFixture(t)
	a, b := pickNodes(t, slice)
	commit(t, h, "one", nil, a)
	want := gains(t, h, "fresh", nil, b)
	if got := gains(t, h, "two", nil, b); got != want {
		t.Fatalf("session two saw session one's commits: gain %d, want %d", got, want)
	}
	if !reflect.DeepEqual(want, gains(t, h, "two", nil, b)) {
		t.Fatal("repeat read diverged")
	}
}
