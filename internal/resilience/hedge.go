package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Hedge races redundant attempts against a slow primary: attempt 0 starts
// immediately, and each further attempt starts when the previous ones have
// neither succeeded nor all failed within Delay — or immediately, when
// every launched attempt has already failed. The first success wins; the
// losers' contexts are canceled and DoContext waits for them to unwind
// before returning, so an attempt never outlives the call that spawned it.
//
// The op receives the attempt index, so the attempts need not be
// identical work: the serving layer's fallback ladder hedges an exact
// solver (attempt 0) with a cheaper approximation (attempt 1) and takes
// whichever beats the deadline.
type Hedge struct {
	// Delay is how long to wait before launching the next attempt while
	// earlier ones are still running. <= 0 launches every attempt
	// immediately (a plain race).
	Delay time.Duration
	// Attempts is the maximum number of attempts, the primary included.
	// Values < 1 mean 2.
	Attempts int
	// Stats, when non-nil, receives the outcome of every DoContext call:
	// whether the primary won, a hedge attempt won, or every attempt
	// failed. Several Hedge values may share one HedgeStats to aggregate
	// (the serving layer's ladder and the shard coordinator both do).
	Stats *HedgeStats
}

// HedgeStats counts hedge outcomes so operators can judge whether hedging
// earns its extra work: a high hedge-won rate says the primary path
// straggles; a high both-failed rate says hedging is papering over a
// dependency that is simply down. Safe for concurrent use; the zero value
// is ready.
type HedgeStats struct {
	primaryWon atomic.Int64
	hedgeWon   atomic.Int64
	allFailed  atomic.Int64
}

// HedgeOutcomes is a point-in-time copy of a HedgeStats.
type HedgeOutcomes struct {
	// PrimaryWon counts calls attempt 0 won.
	PrimaryWon int64 `json:"primaryWon"`
	// HedgeWon counts calls a later (hedge) attempt won.
	HedgeWon int64 `json:"hedgeWon"`
	// AllFailed counts calls where every launched attempt failed.
	AllFailed int64 `json:"allFailed"`
}

// Snapshot reports the counters. A nil receiver reads as all zeros, so
// callers can thread an optional *HedgeStats without guarding.
func (s *HedgeStats) Snapshot() HedgeOutcomes {
	if s == nil {
		return HedgeOutcomes{}
	}
	return HedgeOutcomes{
		PrimaryWon: s.primaryWon.Load(),
		HedgeWon:   s.hedgeWon.Load(),
		AllFailed:  s.allFailed.Load(),
	}
}

// record books one call's outcome; nil-safe.
func (s *HedgeStats) record(winner int, failed bool) {
	if s == nil {
		return
	}
	switch {
	case failed:
		s.allFailed.Add(1)
	case winner == 0:
		s.primaryWon.Add(1)
	default:
		s.hedgeWon.Add(1)
	}
}

// hedgeResult is one attempt's outcome.
type hedgeResult struct {
	attempt int
	v       any
	err     error
}

// DoContext runs op under the hedging schedule and returns the first
// successful attempt's value. When every attempt fails it returns an
// error joining all attempt errors (test the causes with errors.Is). A
// panicking attempt is recovered into an error wrapping ErrPanic: attempts
// run on internal goroutines, where an uncaught panic would kill the
// process rather than fail the call.
func (h Hedge) DoContext(ctx context.Context, op func(ctx context.Context, attempt int) (any, error)) (any, error) {
	attempts := h.Attempts
	if attempts < 1 {
		attempts = 2
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan hedgeResult, attempts)
	launched := 0
	launch := func() {
		i := launched
		launched++
		go func() {
			defer func() {
				if r := recover(); r != nil {
					results <- hedgeResult{attempt: i, err: fmt.Errorf("resilience: hedge attempt %d: %w: %v\n%s", i, ErrPanic, r, debug.Stack())}
				}
			}()
			v, err := op(hctx, i)
			results <- hedgeResult{attempt: i, v: v, err: err}
		}()
	}

	launch()
	if h.Delay <= 0 {
		for launched < attempts {
			launch()
		}
	}
	var timerC <-chan time.Time
	var timer *time.Timer
	if h.Delay > 0 && launched < attempts {
		timer = time.NewTimer(h.Delay)
		defer timer.Stop()
		timerC = timer.C
	}

	done := ctx.Done()
	finished := 0
	var errs []error
	for {
		select {
		case <-done:
			// The caller's context ended: no further attempts, but wait for
			// the launched ones to observe the cancellation and report.
			attempts = launched
			timerC = nil
			done = nil
		case <-timerC:
			launch()
			if launched < attempts {
				timer.Reset(h.Delay)
			} else {
				timerC = nil
			}
		case r := <-results:
			if r.err == nil {
				cancel()
				for finished < launched-1 {
					<-results
					finished++
				}
				h.Stats.record(r.attempt, false)
				return r.v, nil
			}
			finished++
			errs = append(errs, fmt.Errorf("resilience: hedge attempt %d: %w", r.attempt, r.err))
			if launched < attempts {
				// A failure fast-forwards the schedule: there is no point
				// waiting out the delay when the attempt it was shadowing is
				// already dead.
				launch()
				if timer != nil {
					if !timer.Stop() {
						// Timer already fired; its channel receive above (or a
						// drained value) is superseded by this launch.
						select {
						case <-timer.C:
						default:
						}
					}
					if launched < attempts {
						timer.Reset(h.Delay)
					} else {
						timerC = nil
					}
				}
			} else if finished == launched {
				h.Stats.record(0, true)
				return nil, fmt.Errorf("resilience: hedge: all %d attempts failed: %w", launched, errors.Join(errs...))
			}
		}
	}
}
