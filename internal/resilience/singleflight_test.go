package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCoalesces runs N concurrent calls with one key and checks the
// function executed exactly once, every caller got its result, and the
// coalesce counter reads N−1.
func TestGroupCoalesces(t *testing.T) {
	g := NewGroup(nil)
	const n = 16
	var runs atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{}, n)

	var wg sync.WaitGroup
	vals := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered <- struct{}{}
			vals[i], _, errs[i] = g.DoContext(context.Background(), "solve", func(context.Context) (any, error) {
				runs.Add(1)
				<-release // hold the flight open until every caller joined
				return "answer", nil
			})
		}()
	}
	// The leader blocks on release, so once all n callers have entered Do
	// the other n−1 are guaranteed to have joined its flight.
	for i := 0; i < n; i++ {
		<-entered
	}
	for g.Coalesced() < n-1 {
		// The last joiner may still be between entering the goroutine and
		// taking the group lock; Coalesced is monotone so this terminates.
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("function ran %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i] != "answer" {
			t.Fatalf("caller %d: (%v, %v), want (answer, nil)", i, vals[i], errs[i])
		}
	}
	if got := g.Coalesced(); got != n-1 {
		t.Fatalf("Coalesced = %d, want %d", got, n-1)
	}
}

// TestGroupDistinctKeysDoNotCoalesce runs two keys and expects two
// executions.
func TestGroupDistinctKeysDoNotCoalesce(t *testing.T) {
	g := NewGroup(nil)
	var runs atomic.Int64
	fn := func(context.Context) (any, error) { runs.Add(1); return nil, nil }
	if _, joined, err := g.DoContext(context.Background(), "a", fn); err != nil || joined {
		t.Fatalf("Do(a) = joined %v, err %v", joined, err)
	}
	if _, joined, err := g.DoContext(context.Background(), "b", fn); err != nil || joined {
		t.Fatalf("Do(b) = joined %v, err %v", joined, err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
	if got := g.Coalesced(); got != 0 {
		t.Fatalf("Coalesced = %d, want 0", got)
	}
}

// TestGroupSequentialCallsRunFresh checks a call arriving after a flight
// completed starts a new execution (results are not cached).
func TestGroupSequentialCallsRunFresh(t *testing.T) {
	g := NewGroup(nil)
	var runs atomic.Int64
	fn := func(context.Context) (any, error) { return runs.Add(1), nil }
	v1, _, _ := g.DoContext(context.Background(), "k", fn)
	v2, _, _ := g.DoContext(context.Background(), "k", fn)
	if v1 == v2 {
		t.Fatalf("sequential calls shared one execution: %v and %v", v1, v2)
	}
}

// TestGroupWaiterDetaches cancels one waiter's context mid-flight: the
// waiter returns its context error immediately while the computation keeps
// running and the patient waiter still receives the result.
func TestGroupWaiterDetaches(t *testing.T) {
	g := NewGroup(nil)
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(context.Context) (any, error) {
		close(started)
		<-release
		return 42, nil
	}

	patient := make(chan error, 1)
	var patientVal any
	go func() {
		v, _, err := g.DoContext(context.Background(), "k", fn)
		patientVal = v
		patient <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, joined, err := g.DoContext(ctx, "k", fn)
	if !joined {
		t.Fatal("second caller did not join the in-flight computation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-patient; err != nil {
		t.Fatalf("patient waiter: %v", err)
	}
	if patientVal != 42 {
		t.Fatalf("patient waiter value = %v, want 42", patientVal)
	}
}

// TestGroupLeaderRunsUnderRunContext cancels the group's run context and
// checks the leader observes it — the drain contract: only the group's own
// context stops a shared computation.
func TestGroupLeaderRunsUnderRunContext(t *testing.T) {
	run, stop := context.WithCancel(context.Background())
	g := NewGroup(run)
	started := make(chan struct{})
	go func() {
		<-started
		stop()
	}()
	_, _, err := g.DoContext(context.Background(), "k", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("group test: interrupted: %w", ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("leader under canceled run context returned %v, want Canceled", err)
	}
	g.Wait()
}

// TestGroupLeaderPanicFailsAllWaiters panics the leader and checks every
// waiter receives an error wrapping ErrPanic — a completed flight, never a
// hang.
func TestGroupLeaderPanicFailsAllWaiters(t *testing.T) {
	g := NewGroup(nil)
	const n = 8
	release := make(chan struct{})
	entered := make(chan struct{}, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered <- struct{}{}
			_, _, errs[i] = g.DoContext(context.Background(), "k", func(context.Context) (any, error) {
				<-release
				panic("poisoned solve")
			})
		}()
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	for g.Coalesced() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("waiter %d: %v, want ErrPanic", i, err)
		}
	}
}

// TestGroupWaitDrainsLeaders checks Wait blocks until in-flight leaders
// exit once the run context is canceled.
func TestGroupWaitDrainsLeaders(t *testing.T) {
	run, stop := context.WithCancel(context.Background())
	g := NewGroup(run)
	started := make(chan struct{})
	detached, cancel := context.WithCancel(context.Background())
	go func() {
		// The only waiter detaches immediately; the leader keeps running.
		cancel()
		_, _, _ = g.DoContext(detached, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, nil
		})
	}()
	<-started
	stop()
	g.Wait() // must return: the leader saw the canceled run context
}

// TestGroupLeaderPanicAfterAllWaitersDetachedUnderDrain is the abandoned-
// flight worst case: the process is draining (run context canceled), every
// waiter has already detached with its own context error, and THEN the
// leader panics. The panic must stay contained (no crashed test process),
// the flight must leave the map so a later call for the same key starts
// fresh instead of joining a corpse, and Wait must return.
func TestGroupLeaderPanicAfterAllWaitersDetachedUnderDrain(t *testing.T) {
	run, drain := context.WithCancel(context.Background())
	g := NewGroup(run)

	leaderEntered := make(chan struct{})
	release := make(chan struct{})
	waiterCtx, detach := context.WithCancel(context.Background())
	// Detach fires while the leader is parked on release, so the DoContext
	// below — the flight's only waiter — returns the waiter's context error
	// long before the leader panics.
	go func() {
		<-leaderEntered
		drain()  // the process drains
		detach() // ...and the last waiter hangs up
	}()
	_, _, err := g.DoContext(waiterCtx, "k", func(ctx context.Context) (any, error) {
		close(leaderEntered)
		<-release
		panic("poisoned solve after drain")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter got %v, want context.Canceled", err)
	}

	// Nobody is listening; now the leader panics.
	close(release)
	g.Wait() // contained: Wait returns instead of the process dying

	// The flight left the map: a fresh call for the same key runs fresh
	// and does not coalesce onto the dead flight.
	g.mu.Lock()
	leaked := len(g.flights)
	g.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flights leaked after the contained panic", leaked)
	}
	before := g.Coalesced()
	v, joined, err := g.DoContext(context.Background(), "k", func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || v.(string) != "fresh" {
		t.Fatalf("fresh call after contained panic: %v, %v", v, err)
	}
	if joined || g.Coalesced() != before {
		t.Fatal("fresh call coalesced onto the dead flight")
	}
}
