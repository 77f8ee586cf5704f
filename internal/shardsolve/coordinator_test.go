package shardsolve

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/gen"
	"lcrb/internal/resilience"
	"lcrb/internal/sketch"
)

// testProblem builds a planted-community LCRB-P instance with bridge
// ends, mirroring the sketch package's fixture.
func testProblem(t testing.TB, nodes, commSize int32, seed uint64) *core.Problem {
	t.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: nodes, AvgDegree: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(commSize)
	members := planted.Members(comm)
	if len(members) < 3 {
		t.Fatalf("community too small: %d members", len(members))
	}
	p, err := core.NewProblem(net.Graph, planted.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	return p
}

// buildHosts builds count shard hosts holding prebuilt slices, plus
// spares hosts whose providers rebuild any requested slice from the CRN
// seed stream.
func buildHosts(t testing.TB, p *core.Problem, opts sketch.Options, count, spares int) []*Host {
	t.Helper()
	hosts := make([]*Host, 0, count+spares)
	for i := 0; i < count; i++ {
		slice, err := sketch.BuildShardContext(context.Background(), p, opts, i, count)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		hosts = append(hosts, NewHost(StaticProvider(slice)))
	}
	for i := 0; i < spares; i++ {
		hosts = append(hosts, NewHost(func(index, cnt int) (*sketch.Set, error) {
			return sketch.BuildShardContext(context.Background(), p, opts, index, cnt)
		}))
	}
	return hosts
}

// fastCoordinator returns a coordinator tuned for test latencies.
func fastCoordinator(tr Transport, shards int) *Coordinator {
	return &Coordinator{
		Transport:   tr,
		Shards:      shards,
		HedgeDelay:  2 * time.Millisecond,
		CallTimeout: 2 * time.Second,
	}
}

// assertSameGreedy fails unless the sharded result matches the
// single-store GreedyResult field for field, floats included — the gains
// are ratios of identical integers, so even float equality is exact.
func assertSameGreedy(t *testing.T, got *Result, want *core.GreedyResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Protectors, want.Protectors) {
		t.Fatalf("Protectors = %v, want %v", got.Protectors, want.Protectors)
	}
	if !reflect.DeepEqual(got.Gains, want.Gains) {
		t.Fatalf("Gains = %v, want %v", got.Gains, want.Gains)
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("Evaluations = %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.ProtectedEnds != want.ProtectedEnds || got.BaselineEnds != want.BaselineEnds {
		t.Fatalf("σ̂ = (%v, %v), want (%v, %v)",
			got.ProtectedEnds, got.BaselineEnds, want.ProtectedEnds, want.BaselineEnds)
	}
	if got.Achieved != want.Achieved || got.Partial != want.Partial {
		t.Fatalf("flags = (achieved %v, partial %v), want (%v, %v)",
			got.Achieved, got.Partial, want.Achieved, want.Partial)
	}
}

// TestShardedBitIdentity is the headline acceptance check: with no
// faults, the sharded solve returns a GreedyResult identical to the
// single-store solver — Protectors, Gains, Evaluations, σ̂ — for shard
// counts 1, 2, 3 and GOMAXPROCS, on a static instance and on a snapshot
// after a delta that appends a node.
func TestShardedBitIdentity(t *testing.T) {
	static := testProblem(t, 300, 40, 41)
	// The post-delta instance is what shard hosts rebuild after a delta
	// propagates: one generated batch that appends a node, with the
	// newcomer outside every community (-1). Stream seed 5 wires the new
	// node in as a relay, so it lands in the RR sets and a slice build
	// that skipped it would diverge.
	stream, err := dyngraph.GenerateStream(static.Graph, 1, 5, dyngraph.StreamConfig{AddNodeEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dyngraph.NewMaster(static.Graph)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := m.ApplyDelta(stream[0].Delta)
	if err != nil {
		t.Fatal(err)
	}
	assign := append([]int32(nil), static.Assign...)
	for int32(len(assign)) < snap.Graph.NumNodes() {
		assign = append(assign, -1)
	}
	grown, err := core.NewProblem(snap.Graph, assign, static.RumorCommunity, static.Rumors)
	if err != nil {
		t.Fatal(err)
	}

	opts := sketch.Options{Samples: 48, Seed: 7}
	cases := []struct {
		name string
		p    *core.Problem
	}{{"static", static}, {"post-delta", grown}}
	for _, tc := range cases {
		name, p := tc.name, tc.p
		full, err := sketch.Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		appended := false
		for _, pr := range full.Pairs {
			appended = appended || pr.Nodes[len(pr.Nodes)-1] >= static.Graph.NumNodes()
		}
		if p == grown && !appended {
			t.Fatal("post-delta: no RR set contains the appended node, so the case exercises nothing")
		}
		for _, alpha := range []float64{0.7, 0.9} {
			want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			counts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
			for _, count := range counts {
				hosts := buildHosts(t, p, opts, count, 0)
				c := fastCoordinator(NewInProc(hosts, nil), count)
				got, err := c.SolveContext(context.Background(), Spec{Alpha: alpha})
				if err != nil {
					t.Fatalf("%s alpha %v count %d: %v", name, alpha, count, err)
				}
				assertSameGreedy(t, got, want)
				if got.Degraded != "" || got.Shards.LostRealizations != 0 {
					t.Fatalf("%s alpha %v count %d: fault-free solve tagged %q with %d lost realizations",
						name, alpha, count, got.Degraded, got.Shards.LostRealizations)
				}
				if got.Shards.Total != count || got.Shards.Live != count {
					t.Fatalf("%s alpha %v count %d: census %+v", name, alpha, count, got.Shards)
				}
				if got.Samples != 48 || got.EffectiveSamples != 48 {
					t.Fatalf("%s alpha %v count %d: samples %d/%d, want 48/48",
						name, alpha, count, got.EffectiveSamples, got.Samples)
				}
			}
		}
	}
}

// TestShardedFullSetAsSingleShard runs the coordinator over one host
// holding the unsharded sketch — the single-shard deployment reusing the
// daemon's existing store.
func TestShardedFullSetAsSingleShard(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 32, Seed: 7}
	full, err := sketch.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := fastCoordinator(NewInProc([]*Host{NewHost(StaticProvider(full))}, nil), 1)
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGreedy(t, got, want)
}

// TestShardedRequeueOntoSpare kills a primary endpoint mid-solve with a
// spare available: the identity requeues, the spare rebuilds the slice
// from the CRN stream and reconciles from the request's commit prefix,
// and the answer is still bit-identical with no degradation.
func TestShardedRequeueOntoSpare(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	full, err := sketch.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := buildHosts(t, p, opts, 3, 1)
	chaos := Chaos{1: {{Call: 3, Kind: FaultDie}}}
	c := fastCoordinator(NewInProc(hosts, chaos), 3)
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGreedy(t, got, want)
	if got.Degraded != "" || got.Shards.Live != 3 || got.Shards.LostRealizations != 0 {
		t.Fatalf("requeued solve tagged %q, census %+v", got.Degraded, got.Shards)
	}
}

// TestShardedRestartSurvives restarts a shard host mid-solve (sessions
// and cached slices dropped): the session-free protocol rebuilds from
// the committed prefix carried by every request, bit-identically.
func TestShardedRestartSurvives(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	full, err := sketch.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hosts must re-provide their slice after the restart drops the
	// cache, so give every primary a rebuilding provider.
	hosts := make([]*Host, 3)
	for i := range hosts {
		hosts[i] = NewHost(func(index, cnt int) (*sketch.Set, error) {
			return sketch.BuildShardContext(context.Background(), p, opts, index, cnt)
		})
	}
	chaos := Chaos{0: {{Call: 4, Kind: FaultRestart}}, 2: {{Call: 7, Kind: FaultRestart}}}
	c := fastCoordinator(NewInProc(hosts, chaos), 3)
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGreedy(t, got, want)
	if got.Degraded != "" {
		t.Fatalf("restarted solve tagged %q", got.Degraded)
	}
}

// TestShardedStragglerHedged stalls single calls on two endpoints: the
// hedge attempt wins past each stall, the shared stats record the wins,
// and the answer is bit-identical.
func TestShardedStragglerHedged(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	full, err := sketch.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := buildHosts(t, p, opts, 3, 0)
	chaos := Chaos{1: {{Call: 2, Kind: FaultStall}}, 2: {{Call: 5, Kind: FaultStall}}}
	stats := &resilience.HedgeStats{}
	c := fastCoordinator(NewInProc(hosts, chaos), 3)
	c.HedgeStats = stats
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGreedy(t, got, want)
	if got.Degraded != "" {
		t.Fatalf("hedged solve tagged %q", got.Degraded)
	}
	if outcomes := stats.Snapshot(); outcomes.HedgeWon < 2 {
		t.Fatalf("hedge outcomes %+v, want at least 2 hedge wins", outcomes)
	}
}

// referenceGreedy is an independent oracle: plain (non-lazy) greedy max
// coverage over an explicit pair list, with (gain desc, node asc)
// tie-breaking — the selection the coordinator must reproduce over the
// surviving shards after a loss.
func referenceGreedy(pairs []sketch.Pair, baseline, samples, numEnds int, alpha float64) (protectors []int32, gains []int, covered int, target int) {
	required := int(alpha * float64(numEnds))
	if float64(required) < alpha*float64(numEnds) {
		required++
	}
	target = required*samples - baseline
	coveredBy := make(map[int32][]int, 0)
	for pi, pair := range pairs {
		for _, u := range pair.Nodes {
			coveredBy[u] = append(coveredBy[u], pi)
		}
	}
	nodes := make([]int32, 0, len(coveredBy))
	for u := range coveredBy {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	done := make([]bool, len(pairs))
	for covered < target && len(protectors) < numEnds {
		best, bestGain := int32(-1), 0
		for _, u := range nodes {
			g := 0
			for _, pi := range coveredBy[u] {
				if !done[pi] {
					g++
				}
			}
			if g > bestGain {
				best, bestGain = u, g
			}
		}
		if best < 0 {
			break
		}
		for _, pi := range coveredBy[best] {
			done[pi] = true
		}
		covered += bestGain
		protectors = append(protectors, best)
		gains = append(gains, bestGain)
	}
	return protectors, gains, covered, target
}

// TestShardLossDegradesHonestly kills one of three shards (no spares)
// before the first commit: the solve must answer from the survivors,
// match the two-surviving-shards oracle exactly, and tag the loss.
func TestShardLossDegradesHonestly(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	slice0, err := sketch.BuildShardContext(context.Background(), p, opts, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	slice2, err := sketch.BuildShardContext(context.Background(), p, opts, 2, 3)
	if err != nil {
		t.Fatal(err)
	}

	hosts := buildHosts(t, p, opts, 3, 0)
	// Call 1 is init (succeeds); the endpoint dies at its second call,
	// before any commit exists, so the selection from round 0 onward is
	// pure greedy over the survivors.
	chaos := Chaos{1: {{Call: 2, Kind: FaultDie}}}
	c := fastCoordinator(NewInProc(hosts, chaos), 3)
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}

	lostWant := sketch.ShardRealizations(48, 1, 3)
	if got.Degraded != DegradedShardLoss {
		t.Fatalf("Degraded = %q, want %q", got.Degraded, DegradedShardLoss)
	}
	if got.Shards.Total != 3 || got.Shards.Live != 2 || got.Shards.LostRealizations != lostWant {
		t.Fatalf("census %+v, want {3, 2, %d}", got.Shards, lostWant)
	}
	if got.EffectiveSamples != 48-lostWant {
		t.Fatalf("EffectiveSamples = %d, want %d", got.EffectiveSamples, 48-lostWant)
	}

	// Oracle: plain greedy over exactly the surviving shards' pairs.
	pairs := append(append([]sketch.Pair{}, slice0.Pairs...), slice2.Pairs...)
	baseline := slice0.BaselinePairs + slice2.BaselinePairs
	nEff := 48 - lostWant
	protectors, gainInts, covered, target := referenceGreedy(pairs, baseline, nEff, slice0.NumEnds, 0.9)
	if !reflect.DeepEqual(got.Protectors, append([]int32{}, protectors...)) {
		t.Fatalf("Protectors = %v, oracle %v", got.Protectors, protectors)
	}
	n := float64(nEff)
	for k, g := range gainInts {
		if got.Gains[k] != float64(g)/n {
			t.Fatalf("Gains[%d] = %v, oracle %v", k, got.Gains[k], float64(g)/n)
		}
	}
	if got.ProtectedEnds != float64(baseline+covered)/n {
		t.Fatalf("ProtectedEnds = %v, oracle %v", got.ProtectedEnds, float64(baseline+covered)/n)
	}
	if got.BaselineEnds != float64(baseline)/n {
		t.Fatalf("BaselineEnds = %v, oracle %v", got.BaselineEnds, float64(baseline)/n)
	}
	if want := covered >= target; got.Achieved != want {
		t.Fatalf("Achieved = %v, oracle %v", got.Achieved, want)
	}
}

// TestShardLossBreaksCertificate picks an ε whose martingale certificate
// holds for the fault-free solve but not for the post-loss one, and
// checks BoundMet flips accordingly: shard loss must be able to revoke
// an accuracy certificate the full sample count would have earned.
func TestShardLossBreaksCertificate(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	numEnds := hostNumEnds(t, buildHosts(t, p, opts, 3, 0)[0])
	chaos := func() Chaos { return Chaos{1: {{Call: 2, Kind: FaultDie}}} }

	// Dry runs (no certificate requested) to learn both x̂ values.
	clean, err := fastCoordinator(NewInProc(buildHosts(t, p, opts, 3, 0), nil), 3).SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := fastCoordinator(NewInProc(buildHosts(t, p, opts, 3, 0), chaos()), 3).SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Degraded != DegradedShardLoss {
		t.Fatalf("Degraded = %q, want %q", lossy.Degraded, DegradedShardLoss)
	}
	xhatClean := clean.ProtectedEnds / float64(numEnds)
	xhatLossy := lossy.ProtectedEnds / float64(numEnds)

	// Search for an ε the clean run certifies and the lossy one cannot.
	eps := 0.0
	for cand := 0.05; cand < 0.95; cand += 0.01 {
		metClean, err := sketch.CertifyBound(cand, sketch.DefaultDelta, clean.EffectiveSamples, xhatClean)
		if err != nil {
			t.Fatal(err)
		}
		metLossy, err := sketch.CertifyBound(cand, sketch.DefaultDelta, lossy.EffectiveSamples, xhatLossy)
		if err != nil {
			t.Fatal(err)
		}
		if metClean && !metLossy {
			eps = cand
			break
		}
	}
	if eps == 0 {
		t.Skip("no epsilon separates the full run from the post-loss run at this coverage")
	}

	cleanCert, err := fastCoordinator(NewInProc(buildHosts(t, p, opts, 3, 0), nil), 3).
		SolveContext(context.Background(), Spec{CertEpsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if !cleanCert.BoundChecked || !cleanCert.BoundMet {
		t.Fatalf("fault-free certificate: checked %v met %v, want true/true",
			cleanCert.BoundChecked, cleanCert.BoundMet)
	}

	lossyCert, err := fastCoordinator(NewInProc(buildHosts(t, p, opts, 3, 0), chaos()), 3).
		SolveContext(context.Background(), Spec{CertEpsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if lossyCert.Degraded != DegradedShardLoss {
		t.Fatalf("Degraded = %q", lossyCert.Degraded)
	}
	if !lossyCert.BoundChecked || lossyCert.BoundMet {
		t.Fatalf("post-loss certificate: checked %v met %v, want true/false — the loss broke the bound",
			lossyCert.BoundChecked, lossyCert.BoundMet)
	}
}

// hostNumEnds reads |B| from a host's init response.
func hostNumEnds(t *testing.T, h *Host) int {
	t.Helper()
	resp, err := h.Serve(&Request{Op: OpInit, SolveID: "probe", Shard: 0, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	return resp.NumEnds
}

// TestShardedValidation covers the coordinator's input checks.
func TestShardedValidation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 16, Seed: 7}
	hosts := buildHosts(t, p, opts, 2, 0)
	tr := NewInProc(hosts, nil)
	if _, err := (&Coordinator{Transport: nil, Shards: 2}).SolveContext(context.Background(), Spec{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := (&Coordinator{Transport: tr, Shards: 0}).SolveContext(context.Background(), Spec{}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := (&Coordinator{Transport: tr, Shards: 3}).SolveContext(context.Background(), Spec{}); err == nil {
		t.Fatal("more shards than endpoints accepted")
	}
	if _, err := (&Coordinator{Transport: tr, Shards: 2}).SolveContext(context.Background(), Spec{Alpha: 1.5}); err == nil {
		t.Fatal("alpha out of range accepted")
	}
	if _, err := (&Coordinator{Transport: tr, Shards: 2}).SolveContext(context.Background(), Spec{CertEpsilon: 2}); err == nil {
		t.Fatal("certificate epsilon out of range accepted")
	}
}
