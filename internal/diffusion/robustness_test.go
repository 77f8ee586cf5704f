package diffusion

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// cancelingModel cancels the given cancel func on its on-th run and
// otherwise delegates, so cancellation lands deterministically mid-sweep.
type cancelingModel struct {
	inner Model
	stop  context.CancelFunc
	on    int64
	calls atomic.Int64
}

func (m *cancelingModel) Name() string { return m.inner.Name() }

func (m *cancelingModel) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if m.calls.Add(1) == m.on {
		m.stop()
	}
	return m.inner.RunContext(ctx, g, rumors, protectors, src, opts)
}

var errInjected = errors.New("injected failure")

// failingModel runs OPOAO except on its on-th run, which fails with
// errInjected — or panics, when panics is set.
type failingModel struct {
	on     int64
	panics bool
	calls  atomic.Int64
}

func (m *failingModel) Name() string { return "failing" }

func (m *failingModel) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if m.calls.Add(1) == m.on {
		if m.panics {
			panic("injected panic")
		}
		return nil, errInjected
	}
	return OPOAO{}.RunContext(ctx, g, rumors, protectors, src, opts)
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
	if model.calls.Load() >= 10_000 {
		t.Fatalf("sweep ran to completion (%d calls) despite cancellation", model.calls.Load())
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
		guard := newLeakGuard()
		_, err := MonteCarlo{Model: &failingModel{on: 3, panics: true}, Samples: 16, Seed: 2, Workers: workers}.
			RunContext(context.Background(), g, []int32{0}, nil, Options{})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPanic", workers, err)
		}
		if !strings.Contains(err.Error(), "injected panic") {
			t.Fatalf("workers=%d: panic value lost: %v", workers, err)
		}
		guard.check(t)
	}
}

func TestMonteCarloInjectedErrorPropagates(t *testing.T) {
	g := pathGraph(t, 5)
	for _, workers := range []int{1, 4} {
		_, err := MonteCarlo{Model: &failingModel{on: 2}, Samples: 16, Seed: 2, Workers: workers}.
			RunContext(context.Background(), g, []int32{0}, nil, Options{})
		if !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: err = %v, want errInjected", workers, err)
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
	model := &failingModel{on: 4}
	start := time.Now()
	_, err = MonteCarlo{Model: model, Samples: 50_000, Seed: 5, Workers: 4}.
		RunContext(context.Background(), g, []int32{0}, nil, Options{MaxHops: 20})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want errInjected", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sibling workers kept running for %v after the failure", elapsed)
	}
	if model.calls.Load() >= 50_000 {
		t.Fatalf("sweep ran to completion (%d calls) despite the failure", model.calls.Load())
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
	for _, m := range []Model{OPOAO{}, DOAM{}} {
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
	for _, m := range []Model{OPOAO{}, DOAM{}} {
		_, err := m.RunContext(ctx, g, []int32{0}, []int32{1}, rng.New(1), Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m.Name(), err)
		}
	}
}
