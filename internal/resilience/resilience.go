// Package resilience provides the small, dependency-free primitives the
// serving layer (cmd/lcrbd) is built from: Retry with exponential backoff
// and deterministic jitter, a three-state circuit Breaker, a weighted-
// semaphore admission Gate with load shedding and per-tenant fair
// queueing, a single-flight Group that coalesces concurrent identical
// calls into one execution, and an Interrupt helper implementing the
// double-Ctrl-C escape hatch shared by every command.
//
// The primitives follow the repo's robustness conventions: every blocking
// operation takes a context (with a Background-delegating non-context
// variant), every error is a "resilience: "-prefixed message wrapping a
// testable sentinel, and all randomness — the retry jitter — comes from a
// seeded lcrb/internal/rng stream so a schedule can be replayed
// bit-for-bit. Nothing here imports the solver packages; the dependency
// points the other way.
package resilience

import "errors"

// Sentinel errors; test with errors.Is.
var (
	// ErrOpen is returned (wrapped) by Breaker.DoContext while the circuit
	// is open or a half-open probe is already in flight.
	ErrOpen = errors.New("resilience: circuit open")
	// ErrShed is returned (wrapped) by Gate.AcquireContext when the gate is
	// at capacity and the waiting queue is full: the request is shed
	// immediately rather than queued behind work that cannot finish in
	// time.
	ErrShed = errors.New("resilience: admission shed")
	// ErrQuotaExceeded is returned (wrapped) by Gate.AcquireTenantContext
	// when the acquiring tenant's fair share of the waiting queue is full
	// while the queue as a whole still has room: the hot tenant sheds
	// itself without starving the others.
	ErrQuotaExceeded = errors.New("resilience: tenant quota exceeded")
	// ErrPanic is returned (wrapped) by Group.DoContext to every waiter
	// when the flight's leader panics. The leader runs on its own
	// goroutine, where an uncaught panic would kill the whole process
	// instead of failing one request; the recovery converts it into an
	// ordinary error.
	ErrPanic = errors.New("resilience: attempt panicked")
)
