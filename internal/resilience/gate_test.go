package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateTryAcquire admits up to capacity and refuses beyond it.
func TestGateTryAcquire(t *testing.T) {
	g := NewGate(2, 0)
	if !g.TryAcquire(1) || !g.TryAcquire(1) {
		t.Fatal("TryAcquire refused within capacity")
	}
	if g.TryAcquire(1) {
		t.Fatal("TryAcquire admitted beyond capacity")
	}
	g.Release(1)
	if !g.TryAcquire(1) {
		t.Fatal("TryAcquire refused after release")
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
}

// TestGateShedOnFull sheds immediately with ErrShed when the gate is full
// and the waiting queue is at its bound.
func TestGateShedOnFull(t *testing.T) {
	g := NewGate(1, 0)
	if err := g.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	err := g.AcquireContext(context.Background(), 1)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire on full gate = %v, want ErrShed", err)
	}
	if got := g.Shed(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// With one queue slot, the first excess acquirer waits and the second
	// sheds.
	g2 := NewGate(1, 1)
	if err := g2.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- g2.AcquireContext(context.Background(), 1) }()
	for g2.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := g2.AcquireContext(context.Background(), 1); !errors.Is(err, ErrShed) {
		t.Fatalf("second excess acquire = %v, want ErrShed", err)
	}
	g2.Release(1)
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
}

// TestGateInvalidWeight rejects non-positive and over-capacity weights.
func TestGateInvalidWeight(t *testing.T) {
	g := NewGate(2, 0)
	if err := g.AcquireContext(context.Background(), 0); err == nil {
		t.Fatal("Acquire(0) succeeded")
	}
	if err := g.AcquireContext(context.Background(), 3); err == nil {
		t.Fatal("Acquire(3) over capacity succeeded")
	}
	if g.TryAcquire(0) || g.TryAcquire(3) {
		t.Fatal("TryAcquire accepted invalid weight")
	}
}

// TestGateFIFO grants queued waiters in arrival order, and TryAcquire
// never overtakes the queue.
func TestGateFIFO(t *testing.T) {
	g := NewGate(1, -1)
	if err := g.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger arrival so the queue order is deterministic.
			for g.Waiting() < i {
				time.Sleep(time.Millisecond)
			}
			if err := g.AcquireContext(context.Background(), 1); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Release(1)
		}()
	}
	for g.Waiting() < 3 {
		time.Sleep(time.Millisecond)
	}
	if g.TryAcquire(1) {
		t.Fatal("TryAcquire jumped the queue")
	}
	g.Release(1)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

// TestGateAcquireCanceled removes a canceled waiter without disturbing the
// rest of the queue.
func TestGateAcquireCanceled(t *testing.T) {
	g := NewGate(1, -1)
	if err := g.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceledErr := make(chan error, 1)
	go func() { canceledErr <- g.AcquireContext(ctx, 1) }()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-canceledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v, want Canceled", err)
	}
	if got := g.Waiting(); got != 0 {
		t.Fatalf("Waiting after cancel = %d, want 0", got)
	}
	// The gate still works: release and re-acquire.
	g.Release(1)
	if err := g.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire after cancel: %v", err)
	}
}

// TestGateConcurrentHammer checks the in-flight invariant under concurrent
// load, for the race detector.
func TestGateConcurrentHammer(t *testing.T) {
	const capacity = 4
	g := NewGate(capacity, -1)
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := g.AcquireContext(context.Background(), 1); err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				cur := inFlight.Add(1)
				for {
					seen := maxSeen.Load()
					if cur <= seen || maxSeen.CompareAndSwap(seen, cur) {
						break
					}
				}
				inFlight.Add(-1)
				g.Release(1)
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > capacity {
		t.Fatalf("observed %d concurrent holders, capacity %d", got, capacity)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}
