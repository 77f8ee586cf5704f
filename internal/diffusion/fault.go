package diffusion

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// ErrInjected is the default error injected by a Fault. Test with
// errors.Is.
var ErrInjected = errors.New("diffusion: injected fault")

// Fault is a deterministic fault-injection harness: it wraps a Model or a
// Realization and makes the FailOn-th invocation (counted across the whole
// Fault, atomically, so concurrent Monte-Carlo workers share the budget)
// fail with an error — or panic, when Panic is set. Every other invocation
// passes through untouched.
//
// The harness exists to exercise error paths that healthy models never
// take: worker panic containment in MonteCarlo, error propagation through
// the greedy's CELF and plain loops, and partial-result reporting in the
// experiment runners. The zero value never fires (FailOn 0 disables it).
type Fault struct {
	// FailOn is the 1-based invocation index that fails. 0 (or negative)
	// disables the fault entirely — including any Every schedule, so a
	// Fault with Every set but FailOn 0 never fires.
	FailOn int64
	// Every repeats the fault: when set, every Every-th invocation at or
	// after FailOn fails too. 0 means the fault fires exactly once.
	//
	// Boundary values worth spelling out:
	//   - FailOn=1, Every=1 fails every invocation: the first because
	//     n == FailOn, and each later n because (n-FailOn)%1 == 0.
	//   - FailOn=k, Every=0 fails exactly invocation k and no other.
	//   - FailOn=0 with any Every stays disabled; Every alone is not a
	//     schedule.
	Every int64
	// Panic makes the injected failure a panic instead of an error return,
	// for testing recover paths.
	Panic bool
	// Err is the injected error; nil means ErrInjected.
	Err error

	calls atomic.Int64
}

// Calls reports how many invocations the fault has observed.
func (f *Fault) Calls() int64 { return f.calls.Load() }

// Reset rewinds the invocation counter so the same fault schedule replays.
func (f *Fault) Reset() { f.calls.Store(0) }

// Check counts one invocation against the fault's schedule and either
// panics or returns the injected error when that invocation is scheduled
// to fail. It is the exported entry point for wiring fault injection into
// call sites outside this package (graph loading, checkpoint writes, a
// serving layer's σ̂ evaluation) that have no Model or Realization to
// wrap. A nil receiver never fires, so callers can thread an optional
// *Fault without guarding.
func (f *Fault) Check() error {
	if f == nil {
		return nil
	}
	return f.fire()
}

// fire reports whether this invocation is scheduled to fail, and either
// panics or returns the injected error.
func (f *Fault) fire() error {
	n := f.calls.Add(1)
	if f.FailOn <= 0 || n < f.FailOn {
		return nil
	}
	if n != f.FailOn && (f.Every <= 0 || (n-f.FailOn)%f.Every != 0) {
		return nil
	}
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	if f.Panic {
		panic(fmt.Sprintf("diffusion: fault injection: invocation %d: %v", n, err))
	}
	return fmt.Errorf("diffusion: fault injection: invocation %d: %w", n, err)
}

// Model wraps m so invocations fail on the fault's schedule.
func (f *Fault) Model(m Model) Model { return &faultModel{f: f, m: m} }

// Realization wraps r so invocations fail on the fault's schedule.
func (f *Fault) Realization(r Realization) Realization {
	return func(g *graph.Graph, rumors, protectors []int32, realSeed uint64, opts Options) (*Result, error) {
		if err := f.fire(); err != nil {
			return nil, err
		}
		return r(g, rumors, protectors, realSeed, opts)
	}
}

// faultModel is the Model wrapper behind Fault.Model.
type faultModel struct {
	f *Fault
	m Model
}

var _ Model = (*faultModel)(nil)

// Name implements Model.
func (fm *faultModel) Name() string { return fm.m.Name() }

// RunContext implements Model.
func (fm *faultModel) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if err := fm.f.fire(); err != nil {
		return nil, err
	}
	return RunModelContext(ctx, fm.m, g, rumors, protectors, src, opts)
}
