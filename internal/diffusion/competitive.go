package diffusion

import (
	"context"
	"errors"
	"fmt"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// CompetitiveIC is a two-cascade Independent Cascade model in the style of
// Budak et al. (WWW 2011): when a node first becomes active at step t, it
// gets a single chance to activate each currently inactive out-neighbour,
// succeeding independently with probability P. Protector activations win
// simultaneous arrivals. It extends the library beyond the paper's two
// models, along the "other influence diffusion models" direction from the
// paper's conclusion.
type CompetitiveIC struct {
	// P is the per-edge activation probability in (0, 1].
	P float64
}

var _ Model = CompetitiveIC{}

// Name implements Model.
func (m CompetitiveIC) Name() string { return fmt.Sprintf("IC(p=%g)", m.P) }

// RunContext implements Model.
func (m CompetitiveIC) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if src == nil {
		return nil, errors.New("diffusion: CompetitiveIC requires a random source")
	}
	if m.P <= 0 || m.P > 1 {
		return nil, fmt.Errorf("diffusion: CompetitiveIC probability %v out of (0,1]", m.P)
	}
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
		if err := checkHop(ctx, m.Name(), hop); err != nil {
			return nil, err
		}
		nextP, nextR = nextP[:0], nextR[:0]
		for _, u := range frontierP {
			for _, v := range g.Out(u) {
				if status[v] == Inactive && src.Bool(m.P) {
					status[v] = Protected
					protected++
					nextP = append(nextP, v)
					opts.emit(hop+1, v, Protected, u)
				}
			}
		}
		for _, u := range frontierR {
			for _, v := range g.Out(u) {
				if status[v] == Inactive && src.Bool(m.P) {
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

// CompetitiveLT is a two-cascade Linear Threshold model inspired by the
// competitive LT model of He et al. (SDM 2012): every node draws a uniform
// threshold; in-neighbour influence weights are 1/in-degree; a node becomes
// active once the combined weight of its active in-neighbours reaches its
// threshold, adopting the cascade that contributes the larger weight (ties
// to P, per the paper's priority rule).
type CompetitiveLT struct{}

var _ Model = CompetitiveLT{}

// Name implements Model.
func (CompetitiveLT) Name() string { return "CLT" }

// RunContext implements Model.
func (CompetitiveLT) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if src == nil {
		return nil, errors.New("diffusion: CompetitiveLT requires a random source")
	}
	status, err := seedState(g, rumors, protectors)
	if err != nil {
		return nil, err
	}
	res := &Result{Status: status}

	n := g.NumNodes()
	thresholds := make([]float64, n)
	for i := range thresholds {
		thresholds[i] = src.Float64()
	}
	// Accumulated incoming weight per cascade.
	weightR := make([]float64, n)
	weightP := make([]float64, n)
	// stamp dedups threshold checks within a step.
	stamp := make([]int, n)

	var frontier []int32 // nodes activated in the previous step
	var infected, protected int32
	for u, st := range status {
		switch st {
		case Infected:
			infected++
			frontier = append(frontier, int32(u))
		case Protected:
			protected++
			frontier = append(frontier, int32(u))
		}
	}
	res.recordHop(opts, infected, protected)

	opts.emitSeeds(status)

	var next []int32
	maxHops := opts.maxHops()
	hop := 0
	for ; hop < maxHops && len(frontier) > 0; hop++ {
		if err := checkHop(ctx, "CLT", hop); err != nil {
			return nil, err
		}
		next = next[:0]
		// Push the frontier's influence onto inactive neighbours...
		for _, u := range frontier {
			w := status[u]
			for _, v := range g.Out(u) {
				if status[v] != Inactive {
					continue
				}
				share := 1 / float64(g.InDegree(v))
				if w == Protected {
					weightP[v] += share
				} else {
					weightR[v] += share
				}
			}
		}
		// ...then activate every inactive node whose threshold is now met.
		// Scanning only neighbours of the frontier keeps this linear.
		seenStamp := hop + 1
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if status[v] != Inactive || stamp[v] == seenStamp {
					continue
				}
				stamp[v] = seenStamp
				if weightR[v]+weightP[v] < thresholds[v] {
					continue
				}
				if weightP[v] >= weightR[v] {
					status[v] = Protected
					protected++
				} else {
					status[v] = Infected
					infected++
				}
				// The frontier node whose influence completed the
				// threshold is reported as the source.
				opts.emit(hop+1, v, status[v], u)
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
		res.recordHop(opts, infected, protected)
	}
	res.Hops = hop
	res.Infected = infected
	res.Protected = protected
	return res, nil
}
