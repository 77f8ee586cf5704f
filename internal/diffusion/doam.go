package diffusion

import (
	"context"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// DOAM is the Deterministic One-Activate-Many model: when a node first
// becomes infected or protected at step t, it activates *all* of its
// currently inactive out-neighbours at step t+1, and each node gets only
// that single chance to influence. Ties go to the protector cascade. The
// process is the paper's information-broadcast mechanism and is fully
// deterministic, so it ignores the random source.
type DOAM struct{}

var _ Model = DOAM{}

// Name implements Model.
func (DOAM) Name() string { return "DOAM" }

// RunContext implements Model. The random source is unused and may be nil.
func (DOAM) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, _ *rng.Source, opts Options) (*Result, error) {
	status, err := seedState(g, rumors, protectors)
	if err != nil {
		return nil, err
	}
	res := &Result{Status: status}

	var frontierP, frontierR []int32
	var infected, protected int32
	for u, st := range status {
		switch st {
		case Infected:
			infected++
			frontierR = append(frontierR, int32(u))
		case Protected:
			protected++
			frontierP = append(frontierP, int32(u))
		}
	}
	res.recordHop(opts, infected, protected)
	opts.emitSeeds(status)

	var nextP, nextR []int32
	maxHops := opts.maxHops()
	hop := 0
	for ; hop < maxHops && (len(frontierP) > 0 || len(frontierR) > 0); hop++ {
		if err := checkHop(ctx, "DOAM", hop); err != nil {
			return nil, err
		}
		nextP, nextR = nextP[:0], nextR[:0]
		// Protector frontier first: P claims every inactive neighbour it
		// touches, so simultaneous arrivals resolve in P's favour.
		for _, u := range frontierP {
			for _, v := range g.Out(u) {
				if status[v] == Inactive {
					status[v] = Protected
					protected++
					nextP = append(nextP, v)
					opts.emit(hop+1, v, Protected, u)
				}
			}
		}
		for _, u := range frontierR {
			for _, v := range g.Out(u) {
				if status[v] == Inactive {
					status[v] = Infected
					infected++
					nextR = append(nextR, v)
					opts.emit(hop+1, v, Infected, u)
				}
			}
		}
		frontierP, nextP = nextP, frontierP
		frontierR, nextR = nextR, frontierR
		res.recordHop(opts, infected, protected)
	}
	res.Hops = hop
	res.Infected = infected
	res.Protected = protected
	return res, nil
}
