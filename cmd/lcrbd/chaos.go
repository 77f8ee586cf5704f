package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// errInjected is the error an injected fault returns. Test with errors.Is.
var errInjected = errors.New("lcrbd: injected fault")

// fault is a deterministic fault schedule: the FailOn-th invocation of
// Check (counted atomically, so concurrent requests share the schedule)
// fails with an error wrapping errInjected — or panics, when Panic is set
// — and so does every Every-th invocation after it. Every other
// invocation passes. A nil *fault never fires, so the serving path threads
// optional faults without guards.
type fault struct {
	// FailOn is the 1-based invocation index that fails first. 0 (or
	// negative) disables the fault, including any Every schedule.
	FailOn int64
	// Every repeats the fault on every Every-th invocation after FailOn.
	// 0 means the fault fires exactly once.
	Every int64
	// Panic makes the injected failure a panic instead of an error return,
	// exercising the recover paths.
	Panic bool

	calls atomic.Int64
}

// Check counts one invocation against the schedule and either panics or
// returns the injected error when that invocation is scheduled to fail.
func (f *fault) Check() error {
	if f == nil {
		return nil
	}
	n := f.calls.Add(1)
	if f.FailOn <= 0 || n < f.FailOn {
		return nil
	}
	if n != f.FailOn && (f.Every <= 0 || (n-f.FailOn)%f.Every != 0) {
		return nil
	}
	if f.Panic {
		panic(fmt.Sprintf("lcrbd: fault injection: invocation %d: %v", n, errInjected))
	}
	return fmt.Errorf("lcrbd: fault injection: invocation %d: %w", n, errInjected)
}

// chaosFaults carries the optional injected faults, one per serving stage.
// A nil fault (the usual case) never fires.
type chaosFaults struct {
	// load fires while building an experiment instance (network
	// generation + community detection), exercising the retry and circuit
	// breaker in front of the instance cache.
	load *fault
	// solve fires where solveCover starts the LCRB-P selection of a
	// greedy, auto or ris request, before the library call, exercising the
	// ladder's degrade path (greedy/ris → SCBG → heuristic) and, with
	// :panic, the selection's panic recovery.
	solve *fault
}

// parseChaos parses a comma-separated fault list. Each element is
//
//	stage:failon[/every][:panic]
//
// where stage is load or solve, each at most once; failon (>= 1) is the
// 1-based invocation index that fails; every (>= 1) optionally repeats the
// fault on every every-th invocation after failon; and the literal suffix
// ":panic" makes the injected failure a panic instead of an error,
// exercising the containment paths. Example:
//
//	-chaos load:1,solve:3/5:panic
//
// An empty spec returns a chaosFaults with every fault nil.
func parseChaos(spec string) (*chaosFaults, error) {
	cf := &chaosFaults{}
	if spec == "" {
		return cf, nil
	}
	for _, elem := range strings.Split(spec, ",") {
		parts := strings.Split(elem, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("chaos spec %q: want stage:failon[/every][:panic]", elem)
		}
		f := &fault{}
		sched := parts[1]
		if i := strings.IndexByte(sched, '/'); i >= 0 {
			every, err := strconv.ParseInt(sched[i+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos spec %q: every: %w", elem, err)
			}
			if every < 1 {
				return nil, fmt.Errorf("chaos spec %q: every %d must be >= 1", elem, every)
			}
			f.Every = every
			sched = sched[:i]
		}
		failOn, err := strconv.ParseInt(sched, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos spec %q: failon: %w", elem, err)
		}
		if failOn < 1 {
			return nil, fmt.Errorf("chaos spec %q: failon %d must be >= 1", elem, failOn)
		}
		f.FailOn = failOn
		if len(parts) == 3 {
			if parts[2] != "panic" {
				return nil, fmt.Errorf("chaos spec %q: unknown modifier %q (want panic)", elem, parts[2])
			}
			f.Panic = true
		}
		var slot **fault
		switch parts[0] {
		case "load":
			slot = &cf.load
		case "solve":
			slot = &cf.solve
		default:
			return nil, fmt.Errorf("chaos spec %q: unknown stage %q (want load or solve)", elem, parts[0])
		}
		if *slot != nil {
			return nil, fmt.Errorf("chaos spec %q: stage %q given twice", elem, parts[0])
		}
		*slot = f
	}
	return cf, nil
}
