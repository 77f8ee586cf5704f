package diffusion

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// cancelingModel cancels the given cancel func on its CancelOn-th run and
// otherwise delegates, so cancellation lands deterministically mid-sweep.
type cancelingModel struct {
	Fault // reuse the atomic invocation counter
	inner Model
	stop  context.CancelFunc
	on    int64
}

func (m *cancelingModel) Name() string { return m.inner.Name() }

func (m *cancelingModel) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if m.calls.Add(1) == m.on {
		m.stop()
	}
	return m.inner.RunContext(ctx, g, rumors, protectors, src, opts)
}

// leakGuard snapshots the goroutine count; its check retries briefly so
// already-unblocked workers get to exit before the count is compared.
type leakGuard int

func newLeakGuard() leakGuard { return leakGuard(runtime.NumGoroutine()) }

func (lg leakGuard) check(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= int(lg) {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d before, %d after", int(lg), runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMonteCarloRunContextPreCanceled(t *testing.T) {
	g := pathGraph(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	guard := newLeakGuard()
	_, err := MonteCarlo{Model: DOAM{}, Samples: 8, Workers: 4}.
		RunContext(ctx, g, []int32{0}, nil, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	guard.check(t)
}

func TestMonteCarloRunContextCancelMidRun(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model := &cancelingModel{inner: OPOAO{}, stop: cancel, on: 5}
	guard := newLeakGuard()

	start := time.Now()
	_, err = MonteCarlo{Model: model, Samples: 10_000, Seed: 3, Workers: 4}.
		RunContext(ctx, g, []int32{0, 1}, []int32{2}, Options{MaxHops: 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Prompt return: nowhere near the time 10k samples would take.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if model.Calls() >= 10_000 {
		t.Fatalf("sweep ran to completion (%d calls) despite cancellation", model.Calls())
	}
	guard.check(t)
}

func TestMonteCarloRunContextDeadline(t *testing.T) {
	g := pathGraph(t, 6)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := MonteCarlo{Model: DOAM{}, Samples: 4}.RunContext(ctx, g, []int32{0}, nil, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMonteCarloPanicContained(t *testing.T) {
	g := pathGraph(t, 5)
	for _, workers := range []int{1, 4} {
		fault := &Fault{FailOn: 3, Panic: true}
		guard := newLeakGuard()
		_, err := MonteCarlo{Model: fault.Model(OPOAO{}), Samples: 16, Seed: 2, Workers: workers}.
			RunContext(context.Background(), g, []int32{0}, nil, Options{})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPanic", workers, err)
		}
		if !strings.Contains(err.Error(), "fault injection") {
			t.Fatalf("workers=%d: panic value lost: %v", workers, err)
		}
		guard.check(t)
	}
}

func TestMonteCarloInjectedErrorPropagates(t *testing.T) {
	g := pathGraph(t, 5)
	for _, workers := range []int{1, 4} {
		fault := &Fault{FailOn: 2}
		_, err := MonteCarlo{Model: fault.Model(OPOAO{}), Samples: 16, Seed: 2, Workers: workers}.
			RunContext(context.Background(), g, []int32{0}, nil, Options{})
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("workers=%d: err = %v, want ErrInjected", workers, err)
		}
		// The injected failure, not the fallout cancellation, must surface.
		if errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancellation fallout shadowed the cause: %v", workers, err)
		}
	}
}

func TestMonteCarloErrorCancelsSiblingWorkers(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	fault := &Fault{FailOn: 4}
	start := time.Now()
	_, err = MonteCarlo{Model: fault.Model(OPOAO{}), Samples: 50_000, Seed: 5, Workers: 4}.
		RunContext(context.Background(), g, []int32{0}, nil, Options{MaxHops: 20})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sibling workers kept running for %v after the failure", elapsed)
	}
	if fault.Calls() >= 50_000 {
		t.Fatalf("sweep ran to completion (%d calls) despite the failure", fault.Calls())
	}
}

// TestRunContextMatchesRun pins that a live, cancellable context leaves a
// completed run bit-identical to one under context.Background(): the
// per-hop cancellation checks consume no randomness.
func TestRunContextMatchesRun(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 300, 13)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rumors, protectors := []int32{0, 1}, []int32{2}
	for _, m := range []Model{OPOAO{}, DOAM{}, CompetitiveIC{P: 0.3}, CompetitiveLT{}} {
		background, err := m.RunContext(context.Background(), g, rumors, protectors, rng.New(7), Options{MaxHops: 15})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		live, err := m.RunContext(ctx, g, rumors, protectors, rng.New(7), Options{MaxHops: 15})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if background.Infected != live.Infected || background.Protected != live.Protected {
			t.Fatalf("%s: runs diverged under a live context: %d/%d vs %d/%d",
				m.Name(), background.Infected, background.Protected, live.Infected, live.Protected)
		}
	}
}

func TestModelRunContextCanceledMidHops(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1200, 17)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Model{OPOAO{}, DOAM{}, CompetitiveIC{P: 0.5}, CompetitiveLT{}} {
		_, err := m.RunContext(ctx, g, []int32{0}, []int32{1}, rng.New(1), Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m.Name(), err)
		}
	}
}

func TestFaultRealization(t *testing.T) {
	g := pathGraph(t, 5)
	fault := &Fault{FailOn: 2}
	real := fault.Realization(RunOPOAORealization)
	if _, err := real(g, []int32{0}, nil, 1, Options{}); err != nil {
		t.Fatalf("first invocation failed early: %v", err)
	}
	_, err := real(g, []int32{0}, nil, 1, Options{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second invocation: err = %v, want ErrInjected", err)
	}
	if _, err := real(g, []int32{0}, nil, 1, Options{}); err != nil {
		t.Fatalf("fault fired more than once: %v", err)
	}
	fault.Reset()
	if _, err := real(g, []int32{0}, nil, 1, Options{}); err != nil {
		t.Fatalf("after Reset, first invocation failed: %v", err)
	}
	_, err = real(g, []int32{0}, nil, 1, Options{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("after Reset, second invocation: err = %v, want ErrInjected", err)
	}
}

func TestFaultEvery(t *testing.T) {
	fault := &Fault{FailOn: 2, Every: 3}
	var fired []int64
	for i := int64(1); i <= 9; i++ {
		if err := fault.fire(); err != nil {
			fired = append(fired, i)
		}
	}
	want := []int64{2, 5, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on %v, want %v", fired, want)
		}
	}
}
