package main

import (
	"fmt"
	"strconv"
	"strings"

	"lcrb/internal/diffusion"
)

// chaosFaults carries the optional injected faults, one per serving stage.
// A nil fault (the usual case) never fires — diffusion.Fault.Check is
// nil-safe, so the serving path threads these without guards.
type chaosFaults struct {
	// load fires while building an experiment instance (network
	// generation + community detection), exercising the retry and circuit
	// breaker in front of the instance cache.
	load *diffusion.Fault
	// sigma fires inside the greedy's σ̂ Monte-Carlo realizations,
	// exercising the ladder's degrade path (greedy → SCBG → heuristic).
	// Setting it switches explicit greedy requests from core.GreedyContext's
	// default RR-set engine to the Monte-Carlo CELF engine, whose
	// realizations the fault wraps; auto and ris never run it.
	sigma *diffusion.Fault
}

// parseChaos parses a comma-separated fault list. Each element is
//
//	stage:failon[/every][:panic]
//
// where stage is load or sigma; failon is the 1-based invocation index
// that fails; every optionally repeats the fault on every every-th
// invocation after failon; and the literal suffix ":panic" makes
// the injected failure a panic instead of an error, exercising the
// containment paths. Example:
//
//	-chaos load:1,sigma:3/5:panic
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
		f := &diffusion.Fault{}
		sched := parts[1]
		if i := strings.IndexByte(sched, '/'); i >= 0 {
			every, err := strconv.ParseInt(sched[i+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos spec %q: every: %w", elem, err)
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
		switch parts[0] {
		case "load":
			cf.load = f
		case "sigma":
			cf.sigma = f
		default:
			return nil, fmt.Errorf("chaos spec %q: unknown stage %q (want load or sigma)", elem, parts[0])
		}
	}
	return cf, nil
}
