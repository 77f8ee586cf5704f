package resilience

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states, in the order the circuit moves through them.
const (
	// BreakerClosed passes every call through, counting consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every call with ErrOpen until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe call at a time; enough consecutive
	// probe successes close the circuit, any probe failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerOptions tunes a Breaker.
type BreakerOptions struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the circuit from closed to open. Values < 1 mean 5.
	FailureThreshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe. 0 means 1s.
	Cooldown time.Duration
	// SuccessThreshold is the number of consecutive half-open probe
	// successes that close the circuit again. Values < 1 mean 1.
	SuccessThreshold int
	// IsFailure classifies errors; a false return treats the error as a
	// success for circuit accounting (for example a caller-caused
	// cancellation, which says nothing about the guarded dependency's
	// health). Nil counts every non-nil error as a failure.
	IsFailure func(error) bool
	// Now is the clock, for deterministic tests. Nil means time.Now.
	Now func() time.Time
}

// Breaker is a three-state circuit breaker: closed → open after
// FailureThreshold consecutive failures, open → half-open after Cooldown,
// half-open → closed after SuccessThreshold consecutive probe successes
// (or back to open on any probe failure). It fails fast with ErrOpen
// while open, protecting both the caller's latency and the struggling
// dependency behind it. Safe for concurrent use.
type Breaker struct {
	opts BreakerOptions

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	probing   bool      // a half-open probe is in flight
	openedAt  time.Time // when the circuit last opened
}

// NewBreaker returns a closed Breaker with the given options (zero value
// options select the documented defaults).
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.FailureThreshold < 1 {
		opts.FailureThreshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Second
	}
	if opts.SuccessThreshold < 1 {
		opts.SuccessThreshold = 1
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Breaker{opts: opts}
}

// State reports the circuit's current position, accounting for an elapsed
// cooldown (an open circuit whose cooldown has passed reports half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// DoContext runs op through the circuit. While the circuit is open (or a
// half-open probe is already in flight) it returns an error wrapping
// ErrOpen without invoking op. A panicking op is recorded as a failure and
// re-panicked, so the circuit cannot be wedged in the probing state by a
// crash.
func (b *Breaker) DoContext(ctx context.Context, op func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		// A dead context says nothing about the dependency: reject without
		// charging the circuit.
		return fmt.Errorf("resilience: breaker: %w", err)
	}
	if !b.allow() {
		return fmt.Errorf("resilience: breaker: %w", ErrOpen)
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				b.record(fmt.Errorf("resilience: breaker: op panicked: %v", r))
				panic(r)
			}
		}()
		return op(ctx)
	}()
	b.record(err)
	return err
}

// allow decides whether a call may proceed, claiming the probe slot when
// the circuit is half-open.
func (b *Breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // BreakerOpen
		return false
	}
}

// maybeHalfOpenLocked transitions an open circuit whose cooldown has
// elapsed into the half-open state. Callers hold b.mu.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.opts.Now().Sub(b.openedAt) >= b.opts.Cooldown {
		b.state = BreakerHalfOpen
		b.probing = false
		b.successes = 0
	}
}

// record books the outcome of an admitted call.
func (b *Breaker) record(err error) {
	failure := err != nil && (b.opts.IsFailure == nil || b.opts.IsFailure(err))
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if failure {
			b.failures++
			if b.failures >= b.opts.FailureThreshold {
				b.tripLocked()
			}
		} else {
			b.failures = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		if failure {
			b.tripLocked()
		} else {
			b.successes++
			if b.successes >= b.opts.SuccessThreshold {
				b.state = BreakerClosed
				b.failures = 0
			}
		}
	default:
		// BreakerOpen: a straggler admitted before the circuit opened is
		// reporting late; the circuit has already made its decision.
	}
}

// tripLocked opens the circuit. Callers hold b.mu.
func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.opts.Now()
	b.failures = 0
	b.probing = false
	b.successes = 0
}
