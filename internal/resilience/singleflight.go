package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Group coalesces concurrent calls that share a key into one execution
// (single-flight): the first caller for a key becomes the leader and the
// shared function runs exactly once, on its own goroutine, under the
// group's run context; every concurrent caller with the same key — the
// leader's own DoContext included — waits for that one execution and
// receives its result. N identical concurrent calls therefore cost one
// computation and N answers.
//
// The waiters are context-aware: a caller whose context ends while waiting
// detaches with its context error and the shared computation keeps running
// for the remaining waiters (and, if every waiter detaches, runs to
// completion anyway — its result is simply discarded, the same contract as
// the daemon's background sketch builds). Only the run context passed to
// NewGroup cancels the computation itself, so a serving layer hands the
// group its drain context: one impatient client cannot kill a solve other
// clients are waiting on, while a draining process still stops the work.
//
// A panicking leader fails every waiter with an error wrapping ErrPanic —
// the flight is completed, never leaked, so no waiter hangs. Safe for
// concurrent use.
type Group struct {
	run context.Context

	mu      sync.Mutex
	flights map[string]*flight
	wg      sync.WaitGroup

	coalesced atomic.Int64
}

// flight is one in-progress execution; done is closed when the leader
// finishes (or panics) and val/err are immutable from then on.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewGroup returns a Group whose leaders run under run; nil means
// context.Background() (leaders are never canceled by the group).
func NewGroup(run context.Context) *Group {
	if run == nil {
		//lint:ignore ctxflow nil means uncancellable leaders by documented contract; Background is that contract, not a dropped caller context
		run = context.Background()
	}
	//lint:ignore ctxflow the group stores its leader lifetime scope by design; per-call contexts govern waiters via DoContext
	return &Group{run: run, flights: make(map[string]*flight)}
}

// DoContext returns the shared result for key, starting a leader running
// fn when no flight is in progress and joining the existing flight
// otherwise. The reported bool is true when the call coalesced onto a
// flight another caller started. If ctx ends first, DoContext returns its
// error (wrapped) and the flight continues without this waiter.
func (g *Group) DoContext(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, bool, error) {
	g.mu.Lock()
	f, joined := g.flights[key]
	if joined {
		g.coalesced.Add(1)
	} else {
		f = &flight{done: make(chan struct{})}
		g.flights[key] = f
		g.wg.Add(1)
		go g.lead(key, f, fn)
	}
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.val, joined, f.err
	case <-ctx.Done():
		return nil, joined, fmt.Errorf("resilience: group: %w", ctx.Err())
	}
}

// lead runs one flight to completion. The flight is removed from the map
// before done is closed, so a caller arriving after completion starts a
// fresh execution instead of reading a stale result.
func (g *Group) lead(key string, f *flight, fn func(context.Context) (any, error)) {
	defer g.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			f.val = nil
			f.err = fmt.Errorf("resilience: group: leader panicked: %v: %w", rec, ErrPanic)
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(g.run)
}

// Coalesced reports how many calls joined a flight another caller started
// — for N identical concurrent calls, exactly N−1.
func (g *Group) Coalesced() int64 {
	return g.coalesced.Load()
}

// Wait blocks until every in-flight leader has returned. Callers cancel
// the run context first (a drain), so the wait is bounded by the leaders'
// cancellation latency, not a full computation.
func (g *Group) Wait() {
	g.wg.Wait()
}
