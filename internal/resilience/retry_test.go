package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"lcrb/internal/rng"
)

// TestRetrySucceedsAfterFailures retries a flaky op to success without
// surfacing the transient errors.
func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	r := Retry{Attempts: 4, sleep: func(context.Context, time.Duration) error { return nil }}
	err := r.DoContext(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// TestRetryExhaustsAttempts surfaces the last error wrapped after the
// budget is spent.
func TestRetryExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("still broken")
	calls := 0
	r := Retry{Attempts: 3, sleep: func(context.Context, time.Duration) error { return nil }}
	err := r.DoContext(context.Background(), func(context.Context) error { calls++; return sentinel })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrap of sentinel", err)
	}
}

// TestRetryPermanentStopsImmediately honors the Retryable classifier.
func TestRetryPermanentStopsImmediately(t *testing.T) {
	permanent := errors.New("bad config")
	calls := 0
	r := Retry{
		Attempts:  5,
		Retryable: func(err error) bool { return !errors.Is(err, permanent) },
		sleep:     func(context.Context, time.Duration) error { return nil },
	}
	err := r.DoContext(context.Background(), func(context.Context) error { calls++; return permanent })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want wrap of permanent", err)
	}
}

// TestRetryContextErrorsNeverRetried stops on cancellation even when the
// classifier would retry everything.
func TestRetryContextErrorsNeverRetried(t *testing.T) {
	calls := 0
	r := Retry{Attempts: 5, sleep: func(context.Context, time.Duration) error { return nil }}
	err := r.DoContext(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("wrapped: %w", context.DeadlineExceeded)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrap of DeadlineExceeded", err)
	}
}

// TestRetryCanceledDuringBackoff surfaces the context error when the
// backoff sleep is interrupted.
func TestRetryCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{Attempts: 3, sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	err := r.DoContext(ctx, func(context.Context) error { return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
}

// TestRetryJitterDeterministic replays the exact backoff schedule for a
// fixed seed and diverges for a different one.
func TestRetryJitterDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		var delays []time.Duration
		r := Retry{
			Attempts:  5,
			BaseDelay: 100 * time.Millisecond,
			MaxDelay:  10 * time.Second,
			Seed:      seed,
			sleep: func(_ context.Context, d time.Duration) error {
				delays = append(delays, d)
				return nil
			},
		}
		if err := r.DoContext(context.Background(), func(context.Context) error { return errors.New("transient") }); err == nil {
			t.Fatal("expected exhaustion error")
		}
		return delays
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if len(a) != 4 {
		t.Fatalf("len(delays) = %d, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
	// Jittered delays stay within the documented envelope around the
	// exponential base: d·(1−J) <= slept <= d for J = 0.5.
	base := []time.Duration{100, 200, 400, 800}
	for i, d := range a {
		lo, hi := base[i]*time.Millisecond/2, base[i]*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestRetryNoJitter disables jitter with a negative Jitter and checks the
// pure exponential schedule with its cap.
func TestRetryNoJitter(t *testing.T) {
	var delays []time.Duration
	r := Retry{
		Attempts:  5,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  300 * time.Millisecond,
		Jitter:    -1,
		sleep: func(_ context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	if err := r.DoContext(context.Background(), func(context.Context) error { return errors.New("transient") }); err == nil {
		t.Fatal("expected exhaustion error")
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}
	for i, d := range delays {
		if d != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestRetryBackoffBoundaries drives the backoff computation into the
// regions where the float → Duration conversion used to overflow: delays
// near math.MaxInt64, huge multipliers, and attempt counts deep enough to
// saturate. Every returned delay must be a valid duration in [0, max].
func TestRetryBackoffBoundaries(t *testing.T) {
	tests := []struct {
		name string
		r    Retry
		i    int // completed attempts (0-based backoff index)
	}{
		{"max delay at MaxInt64", Retry{BaseDelay: time.Hour, MaxDelay: math.MaxInt64, Multiplier: 2}, 62},
		{"base at MaxInt64", Retry{BaseDelay: math.MaxInt64, MaxDelay: math.MaxInt64}, 0},
		{"base at MaxInt64 grown", Retry{BaseDelay: math.MaxInt64, MaxDelay: math.MaxInt64, Multiplier: 1e18}, 40},
		{"huge multiplier", Retry{BaseDelay: time.Nanosecond, MaxDelay: math.MaxInt64, Multiplier: math.MaxFloat64}, 3},
		{"deep attempt count", Retry{BaseDelay: time.Millisecond, Multiplier: 2}, 1 << 20},
		{"deep attempts, huge cap", Retry{BaseDelay: time.Millisecond, MaxDelay: math.MaxInt64, Multiplier: 2}, 1 << 20},
		{"no jitter at cap", Retry{BaseDelay: math.MaxInt64, MaxDelay: math.MaxInt64, Jitter: -1}, 5},
		{"full jitter at cap", Retry{BaseDelay: math.MaxInt64, MaxDelay: math.MaxInt64, Jitter: 1}, 5},
		{"zero everything", Retry{}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(1)
			for trial := 0; trial < 8; trial++ {
				d := tc.r.backoff(tc.i, src)
				if d < 0 {
					t.Fatalf("backoff(%d) = %v, negative duration", tc.i, d)
				}
				max := tc.r.MaxDelay
				if max <= 0 {
					max = time.Second
				}
				if d > max {
					t.Fatalf("backoff(%d) = %v over the %v cap", tc.i, d, max)
				}
			}
		})
	}
}

// TestRetryBackoffMonotoneUnderCap: away from the overflow boundary the
// guard must not change ordinary growth — unjittered delays double until
// the cap and stay there.
func TestRetryBackoffMonotoneUnderCap(t *testing.T) {
	r := Retry{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Jitter: -1}
	src := rng.New(1)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		640 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if d := r.backoff(i, src); d != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, d, w)
		}
	}
}
