package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"lcrb/internal/rng"
)

// Retry re-runs a failing operation with exponential backoff and
// deterministic jitter. The zero value is usable: three attempts, 10ms
// base delay doubling to a 1s cap, half of each delay jittered from a
// seed-0 stream.
//
// Jitter exists to decorrelate retries from many clients hammering the
// same recovering dependency; determinism exists so a recorded schedule
// replays bit-for-bit. Both at once is possible because the jitter stream
// is a pure function of Seed — give each call site its own seed and the
// fleet decorrelates while every individual schedule stays reproducible.
type Retry struct {
	// Attempts is the total number of attempts (the first try included).
	// Values < 1 mean the default of 3.
	Attempts int
	// BaseDelay is the backoff before the second attempt. 0 means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. 0 means 1s.
	MaxDelay time.Duration
	// Multiplier grows the backoff between attempts. Values <= 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in (0, 1]:
	// the slept delay is d·(1−Jitter) + d·Jitter·u with u uniform in
	// [0, 1). 0 means the default of 0.5; negative disables jitter.
	Jitter float64
	// Seed seeds the jitter stream; the same seed replays the same
	// schedule.
	Seed uint64
	// Retryable, when set, classifies errors: a false return stops the
	// retry loop immediately and surfaces the error as permanent. Nil
	// retries everything except context cancellation and deadline expiry,
	// which always stop the loop.
	Retryable func(error) bool

	// sleep is a test hook over the context-aware backoff sleep.
	sleep func(context.Context, time.Duration) error
}

// DoContext runs op until it succeeds, the attempt budget is spent, the
// error is classified permanent, or ctx ends. The returned error wraps the
// last attempt's error (or the context's), so errors.Is sees through the
// retry layer.
func (r Retry) DoContext(ctx context.Context, op func(context.Context) error) error {
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 3
	}
	src := rng.New(r.Seed)
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("resilience: retry: attempt %d: %w", i+1, cerr)
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("resilience: retry: attempt %d: %w", i+1, err)
		}
		if r.Retryable != nil && !r.Retryable(err) {
			return fmt.Errorf("resilience: retry: permanent: %w", err)
		}
		if i == attempts-1 {
			break
		}
		if serr := r.doSleep(ctx, r.backoff(i, src)); serr != nil {
			return fmt.Errorf("resilience: retry: backoff after attempt %d: %w (last error: %v)", i+1, serr, err)
		}
	}
	return fmt.Errorf("resilience: retry: %d attempts: %w", attempts, err)
}

// backoff returns the jittered delay before attempt i+2 (0-based i counts
// completed attempts), deterministically from src.
func (r Retry) backoff(i int, src *rng.Source) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	mult := r.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(base)
	for k := 0; k < i; k++ {
		d *= mult
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	// Guard the float → Duration conversion: at extreme settings (a
	// MaxDelay near math.MaxInt64, a huge Multiplier, attempt counts in
	// the dozens) d can exceed MaxInt64 — float64(MaxInt64) rounds UP to
	// 2⁶³, so even d == float64(max) can be out of int64 range, and Go
	// leaves out-of-range float→int conversions implementation-defined
	// (negative durations in practice). Clamp while still in float space;
	// the jitter below only shrinks d, never grows it.
	if d > maxConvertibleDelay {
		d = maxConvertibleDelay
	}
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	// A float field cannot distinguish "unset" from "explicitly zero", and
	// the zero value should jitter, so 0 means the default and negative
	// values disable.
	jitter := r.Jitter
	switch {
	case jitter == 0:
		jitter = 0.5
	case jitter < 0:
		jitter = 0
	case jitter > 1:
		jitter = 1
	}
	if jitter > 0 {
		d = d*(1-jitter) + d*jitter*src.Float64()
	}
	return time.Duration(d)
}

// maxConvertibleDelay is the largest float64 that converts to a valid
// positive time.Duration: the predecessor of 2⁶³ in float64. MaxInt64
// itself is not representable — float64(math.MaxInt64) rounds up and out
// of range.
const maxConvertibleDelay = float64(math.MaxInt64 - 512)

// doSleep blocks for d or until ctx ends.
func (r Retry) doSleep(ctx context.Context, d time.Duration) error {
	if r.sleep != nil {
		return r.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
