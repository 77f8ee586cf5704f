package shardsolve

import (
	"fmt"
	"sync"

	"lcrb/internal/sketch"
)

// SliceProvider supplies the shard slice for coordinates (index, count) —
// by returning a prebuilt set, loading a persisted one, or rebuilding
// from the CRN seed stream (sketch.BuildShardContext). A host calls it
// once per coordinates and caches the result; a spare endpoint's provider
// is what lets it adopt a dead shard's identity mid-solve.
type SliceProvider func(index, count int) (*sketch.Set, error)

// StaticProvider serves exactly the given prebuilt sets, matched by their
// recorded shard coordinates. A full (unsharded) set is served as shard
// 0 of 1 — a single-shard deployment can reuse the daemon's existing
// sketch store unchanged.
func StaticProvider(sets ...*sketch.Set) SliceProvider {
	return func(index, count int) (*sketch.Set, error) {
		for _, s := range sets {
			if s == nil {
				continue
			}
			if s.ShardCount == count && s.ShardIndex == index {
				return s, nil
			}
			if s.ShardCount == 0 && count == 1 && index == 0 {
				return s, nil
			}
		}
		return nil, fmt.Errorf("shardsolve: no slice for shard %d/%d", index, count)
	}
}

// Host is one shard worker: it owns slices (lazily obtained from its
// provider) and per-solve sessions over them, and answers coordinator
// requests. Safe for concurrent use; requests against the same slice
// serialize, which is harmless because a solve's requests are sequential
// apart from hedged duplicates.
type Host struct {
	provider SliceProvider

	mu     sync.Mutex
	slices map[hostKey]*hostSlice
}

// hostKey addresses a slice by its shard coordinates.
type hostKey struct{ index, count int }

// hostSlice is one cached slice plus its solve sessions.
type hostSlice struct {
	mu       sync.Mutex
	set      *sketch.Set
	sessions map[string]*session
}

// session is a host's view of one solve: the commit prefix applied so
// far, the gain each commit scored locally (the idempotency log duplicate
// commits are answered from), and the covered bitset they produced.
type session struct {
	committed []int32
	gains     []int
	covered   sketch.Bitset
}

// NewHost returns a Host serving slices from provider.
func NewHost(provider SliceProvider) *Host {
	return &Host{provider: provider, slices: make(map[hostKey]*hostSlice)}
}

// Restart simulates (or implements) a process restart: every cached
// slice and every session is dropped. Subsequent requests re-provide the
// slice and rebuild sessions from their committed prefixes — the
// session-free protocol's recovery path.
func (h *Host) Restart() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.slices = make(map[hostKey]*hostSlice)
}

// Serve answers one coordinator request.
func (h *Host) Serve(req *Request) (*Response, error) {
	if req == nil {
		return nil, fmt.Errorf("shardsolve: host: nil request")
	}
	if req.Count < 1 || req.Shard < 0 || req.Shard >= req.Count {
		return nil, fmt.Errorf("shardsolve: host: shard %d/%d out of range", req.Shard, req.Count)
	}
	sl, err := h.slice(req.Shard, req.Count)
	if err != nil {
		return nil, err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	switch req.Op {
	case OpInit:
		return sl.init(req)
	case OpGains:
		return sl.gainsOf(req)
	case OpCommit:
		return sl.commit(req)
	case OpForget:
		delete(sl.sessions, req.SolveID)
		return &Response{Shard: req.Shard}, nil
	default:
		return nil, fmt.Errorf("shardsolve: host: unknown op %q", req.Op)
	}
}

// slice returns the cached slice for the coordinates, consulting the
// provider on a miss.
func (h *Host) slice(index, count int) (*hostSlice, error) {
	key := hostKey{index, count}
	h.mu.Lock()
	defer h.mu.Unlock()
	if sl, ok := h.slices[key]; ok {
		return sl, nil
	}
	if h.provider == nil {
		return nil, fmt.Errorf("shardsolve: host: no slice provider for shard %d/%d", index, count)
	}
	set, err := h.provider(index, count)
	if err != nil {
		return nil, fmt.Errorf("shardsolve: host: provide shard %d/%d: %w", index, count, err)
	}
	if set == nil {
		return nil, fmt.Errorf("shardsolve: host: provider returned nil slice for shard %d/%d", index, count)
	}
	if !(set.ShardCount == count && set.ShardIndex == index) &&
		!(set.ShardCount == 0 && count == 1 && index == 0) {
		return nil, fmt.Errorf("shardsolve: host: provider returned slice %d/%d for shard %d/%d",
			set.ShardIndex, set.ShardCount, index, count)
	}
	sl := &hostSlice{set: set, sessions: make(map[string]*session)}
	h.slices[key] = sl
	return sl, nil
}

// sliceSamples is the number of realizations a set holds: ShardSamples
// for a slice, Samples for a full set serving as the single shard.
func sliceSamples(set *sketch.Set) int {
	if set.ShardCount > 0 {
		return set.ShardSamples
	}
	return set.Samples
}

// init answers OpInit: slice metadata plus every candidate's round-0
// pair count, ascending by node (Candidates is sorted).
func (sl *hostSlice) init(req *Request) (*Response, error) {
	resp := &Response{
		Shard:         req.Shard,
		Samples:       sl.set.Samples,
		NumEnds:       sl.set.NumEnds,
		ShardSamples:  sliceSamples(sl.set),
		BaselinePairs: sl.set.BaselinePairs,
	}
	for _, u := range sl.set.Candidates() {
		resp.Counts = append(resp.Counts, NodeCount{Node: u, Pairs: sl.set.PairCount(u)})
	}
	return resp, nil
}

// gainsOf answers OpGains: reconcile to the request's prefix, then count
// each candidate's marginal gain against the covered bitset.
func (sl *hostSlice) gainsOf(req *Request) (*Response, error) {
	sess := sl.session(req.SolveID)
	sl.syncTo(sess, req.Committed)
	resp := &Response{Shard: req.Shard, Gains: make([]int, len(req.Candidates))}
	for i, u := range req.Candidates {
		resp.Gains[i] = sl.set.MarginalGain(u, sess.covered)
	}
	return resp, nil
}

// commit answers OpCommit. A duplicate of an already-applied commit —
// a hedged or retried delivery — is answered from the gain log without
// touching the covered state, so commits are idempotent.
func (sl *hostSlice) commit(req *Request) (*Response, error) {
	sess := sl.session(req.SolveID)
	at := len(req.Committed)
	if len(sess.committed) > at &&
		prefixEq(sess.committed[:at], req.Committed) &&
		sess.committed[at] == req.Node {
		return &Response{Shard: req.Shard, Gain: sess.gains[at]}, nil
	}
	sl.syncTo(sess, req.Committed)
	g := sl.apply(sess, req.Node)
	return &Response{Shard: req.Shard, Gain: g}, nil
}

// session returns the session for id, creating it cold.
func (sl *hostSlice) session(id string) *session {
	sess, ok := sl.sessions[id]
	if !ok {
		sess = &session{covered: sketch.NewBitset(sl.set.NumPairs())}
		sl.sessions[id] = sess
	}
	return sess
}

// syncTo reconciles sess to exactly the given commit prefix: the missing
// suffix is applied when the prefix extends the session, anything else —
// a session ahead of the request, or diverged from it — is rebuilt from
// scratch, which is cheap (one commit sweep per prefix entry) and always
// correct.
func (sl *hostSlice) syncTo(sess *session, committed []int32) {
	if len(committed) >= len(sess.committed) && prefixEq(committed[:len(sess.committed)], sess.committed) {
		for _, u := range committed[len(sess.committed):] {
			sl.apply(sess, u)
		}
		return
	}
	sess.committed = sess.committed[:0]
	sess.gains = sess.gains[:0]
	sess.covered = sketch.NewBitset(sl.set.NumPairs())
	for _, u := range committed {
		sl.apply(sess, u)
	}
}

// apply commits u into the session, logging its local gain.
func (sl *hostSlice) apply(sess *session, u int32) int {
	g := sl.set.CommitNode(u, sess.covered)
	sess.committed = append(sess.committed, u)
	sess.gains = append(sess.gains, g)
	return g
}

// prefixEq reports whether two int32 slices are element-wise equal.
func prefixEq(a, b []int32) bool {
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
