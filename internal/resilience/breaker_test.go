package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic clock for breaker cooldown tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestBreakerFullCycle walks closed → open → half-open → closed.
func TestBreakerFullCycle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerOptions{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		SuccessThreshold: 2,
		Now:              clock.Now,
	})
	boom := errors.New("boom")
	fail := func(context.Context) error { return boom }
	ok := func(context.Context) error { return nil }

	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// Two failures and a success: consecutive-failure counter resets.
	for _, op := range []func(context.Context) error{fail, fail, ok, fail, fail} {
		if err := b.DoContext(context.Background(), op); err != nil && !errors.Is(err, boom) {
			t.Fatalf("Do: %v", err)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}
	// Third consecutive failure trips the circuit.
	if err := b.DoContext(context.Background(), fail); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	// Open: fails fast without invoking the op.
	called := false
	err := b.DoContext(context.Background(), func(context.Context) error { called = true; return nil })
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("Do while open = %v, want ErrOpen", err)
	}
	if called {
		t.Fatal("op invoked while circuit open")
	}
	// Cooldown elapses: half-open admits a probe.
	clock.Advance(time.Second)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	// First probe succeeds but SuccessThreshold is 2: still half-open.
	if err := b.DoContext(context.Background(), ok); err != nil {
		t.Fatalf("probe 1: %v", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe 1 = %v, want half-open", got)
	}
	if err := b.DoContext(context.Background(), ok); err != nil {
		t.Fatalf("probe 2: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe 2 = %v, want closed", got)
	}
}

// TestBreakerProbeFailureReopens sends a failing probe and checks the
// circuit reopens for a full cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, Cooldown: time.Second, Now: clock.Now})
	boom := errors.New("boom")
	if err := b.DoContext(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	clock.Advance(time.Second)
	if err := b.DoContext(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("probe = %v, want boom", err)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	clock.Advance(time.Second / 2)
	if err := b.DoContext(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("Do mid-cooldown = %v, want ErrOpen", err)
	}
}

// TestBreakerHalfOpenSingleProbe admits exactly one concurrent probe.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, Cooldown: time.Second, Now: clock.Now})
	if err := b.DoContext(context.Background(), func(context.Context) error { return errors.New("boom") }); err == nil {
		t.Fatal("expected failure")
	}
	clock.Advance(time.Second)

	probeStarted := make(chan struct{})
	release := make(chan struct{})
	probeErr := make(chan error, 1)
	go func() {
		probeErr <- b.DoContext(context.Background(), func(context.Context) error {
			close(probeStarted)
			<-release
			return nil
		})
	}()
	<-probeStarted
	// Second call while the probe is in flight is rejected.
	if err := b.DoContext(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("concurrent probe = %v, want ErrOpen", err)
	}
	close(release)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerIsFailureFilter keeps caller-caused cancellations from
// charging the circuit.
func TestBreakerIsFailureFilter(t *testing.T) {
	b := NewBreaker(BreakerOptions{
		FailureThreshold: 1,
		IsFailure:        func(err error) bool { return !errors.Is(err, context.Canceled) },
	})
	for i := 0; i < 5; i++ {
		err := b.DoContext(context.Background(), func(context.Context) error { return context.Canceled })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want Canceled", err)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed after filtered errors", got)
	}
}

// TestBreakerDeadContextNotCharged rejects without invoking the op or
// charging the circuit when the caller's context is already dead.
func TestBreakerDeadContextNotCharged(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := b.DoContext(ctx, func(context.Context) error {
		t.Fatal("op invoked with dead context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DoContext = %v, want Canceled", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerPanicCountsAsFailure records a panicking op as a failure and
// re-panics; the circuit is not wedged in the probing state.
func TestBreakerPanicCountsAsFailure(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = b.DoContext(context.Background(), func(context.Context) error { panic("kaboom") })
	}()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after panic = %v, want open", got)
	}
}

// TestBreakerConcurrentHammer exercises the breaker under concurrent load
// for the race detector.
func TestBreakerConcurrentHammer(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerOptions{FailureThreshold: 3, Cooldown: time.Millisecond, Now: clock.Now})
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = b.DoContext(context.Background(), func(context.Context) error {
					if (w+i)%3 == 0 {
						return boom
					}
					return nil
				})
				if i%50 == 0 {
					clock.Advance(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	// No assertion on the final state — the point is -race cleanliness and
	// that every call returned.
	_ = b.State()
}
