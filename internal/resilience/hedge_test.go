package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestHedgeFastPrimaryWins returns the primary's value without launching a
// hedge when the primary beats the delay.
func TestHedgeFastPrimaryWins(t *testing.T) {
	var launches atomic.Int32
	h := Hedge{Delay: time.Hour, Attempts: 2}
	v, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		launches.Add(1)
		return attempt, nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if v.(int) != 0 {
		t.Fatalf("winner = attempt %v, want 0", v)
	}
	if got := launches.Load(); got != 1 {
		t.Fatalf("launches = %d, want 1", got)
	}
}

// TestHedgeSlowPrimaryLosesAndIsCanceled launches the hedge after the
// delay, returns its value, and cancels the slow primary — which must
// observe the cancellation before Do returns.
func TestHedgeSlowPrimaryLosesAndIsCanceled(t *testing.T) {
	primaryCanceled := make(chan struct{})
	h := Hedge{Delay: 5 * time.Millisecond, Attempts: 2}
	v, err := h.DoContext(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if attempt == 0 {
			<-ctx.Done() // slow primary parked until canceled
			close(primaryCanceled)
			return nil, ctx.Err()
		}
		return "hedge", nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if v.(string) != "hedge" {
		t.Fatalf("winner = %v, want hedge", v)
	}
	select {
	case <-primaryCanceled:
	default:
		t.Fatal("Do returned before the losing primary observed cancellation")
	}
}

// TestHedgeFailureFastForwards launches the next attempt immediately when
// the previous one fails, without waiting out the delay.
func TestHedgeFailureFastForwards(t *testing.T) {
	start := time.Now()
	h := Hedge{Delay: time.Hour, Attempts: 2}
	v, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		if attempt == 0 {
			return nil, errors.New("primary broken")
		}
		return attempt, nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if v.(int) != 1 {
		t.Fatalf("winner = %v, want attempt 1", v)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("hedge waited out the delay: %v", elapsed)
	}
}

// TestHedgeAllFail joins every attempt error.
func TestHedgeAllFail(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	h := Hedge{Attempts: 2}
	_, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		if attempt == 0 {
			return nil, errA
		}
		return nil, errB
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want wrap of both attempt errors", err)
	}
}

// TestHedgePanicContained converts a panicking attempt into an ErrPanic
// failure instead of crashing the process, and the other attempt still
// wins.
func TestHedgePanicContained(t *testing.T) {
	h := Hedge{Attempts: 2}
	v, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		if attempt == 0 {
			panic("poisoned attempt")
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if v.(string) != "ok" {
		t.Fatalf("winner = %v, want ok", v)
	}

	// Every attempt panicking surfaces ErrPanic.
	_, err = h.DoContext(context.Background(), func(context.Context, int) (any, error) { panic("all poisoned") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want wrap of ErrPanic", err)
	}
}

// TestHedgeParentCanceled stops launching and reports the attempts'
// cancellation errors when the caller's context dies.
func TestHedgeParentCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := Hedge{Delay: time.Hour, Attempts: 3}
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, err := h.DoContext(ctx, func(ctx context.Context, attempt int) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of Canceled", err)
	}
}

// TestHedgeStats counts primary wins, hedge wins and total failures, and
// aggregates across Hedge values sharing one HedgeStats.
func TestHedgeStats(t *testing.T) {
	var stats HedgeStats

	// Primary wins immediately.
	h := Hedge{Delay: time.Hour, Attempts: 2, Stats: &stats}
	if _, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		return attempt, nil
	}); err != nil {
		t.Fatalf("primary win: %v", err)
	}

	// Primary fails, the fast-forwarded hedge wins — a second Hedge value
	// shares the same counters.
	h2 := Hedge{Delay: time.Hour, Attempts: 2, Stats: &stats}
	if _, err := h2.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		if attempt == 0 {
			return nil, errors.New("primary down")
		}
		return "hedge", nil
	}); err != nil {
		t.Fatalf("hedge win: %v", err)
	}

	// Every attempt fails.
	if _, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		return nil, errors.New("all down")
	}); err == nil {
		t.Fatal("all-failed call succeeded")
	}

	got := stats.Snapshot()
	want := HedgeOutcomes{PrimaryWon: 1, HedgeWon: 1, AllFailed: 1}
	if got != want {
		t.Fatalf("Snapshot() = %+v, want %+v", got, want)
	}
}

// TestHedgeStatsNilSafe: a Hedge without Stats and a nil *HedgeStats both
// work — optional wiring must not force a counter on every call site.
func TestHedgeStatsNilSafe(t *testing.T) {
	h := Hedge{Attempts: 2}
	if _, err := h.DoContext(context.Background(), func(_ context.Context, attempt int) (any, error) {
		return attempt, nil
	}); err != nil {
		t.Fatalf("Do without stats: %v", err)
	}
	var s *HedgeStats
	if got := s.Snapshot(); got != (HedgeOutcomes{}) {
		t.Fatalf("nil Snapshot() = %+v, want zeros", got)
	}
}
