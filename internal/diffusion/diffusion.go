// Package diffusion implements the two-cascade influence-diffusion models of
// the paper: the Opportunistic One-Activate-One (OPOAO) model and the
// Deterministic One-Activate-Many (DOAM) model.
//
// All models share the paper's three ground rules:
//
//  1. cascade R (rumor) and cascade P (protector) start at the same time;
//  2. when both cascades reach a node in the same step, P wins;
//  3. diffusion is progressive — once infected or protected, a node never
//     changes status.
package diffusion

import (
	"context"
	"fmt"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// Status is the state of a node during (and after) diffusion.
type Status uint8

const (
	// Inactive nodes have been reached by neither cascade.
	Inactive Status = iota
	// Infected nodes were activated by the rumor cascade R.
	Infected
	// Protected nodes were activated by the protector cascade P.
	Protected
)

// String returns the lowercase name of the status.
func (s Status) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Infected:
		return "infected"
	case Protected:
		return "protected"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// DefaultMaxHops bounds stochastic simulations that have no natural
// termination step. The paper simulates 31 hops and observes that almost no
// new nodes are activated after 32.
const DefaultMaxHops = 64

// Options tunes a simulation run.
type Options struct {
	// MaxHops bounds the number of diffusion steps. 0 means
	// DefaultMaxHops. Deterministic models may stop earlier when both
	// cascades die out.
	MaxHops int
	// RecordHops enables per-hop cumulative counts in the Result.
	RecordHops bool
	// Observer, when non-nil, receives every activation event (seeds
	// included) in activation order. See Trace for a ready-made recorder.
	Observer Observer
}

func (o Options) maxHops() int {
	if o.MaxHops <= 0 {
		return DefaultMaxHops
	}
	return o.MaxHops
}

// Result reports the outcome of one simulation run.
type Result struct {
	// Status holds the final status of every node.
	Status []Status
	// Infected and Protected count final statuses.
	Infected  int32
	Protected int32
	// Hops is the number of steps actually simulated.
	Hops int
	// InfectedAtHop[h] and ProtectedAtHop[h] are cumulative counts after
	// hop h (index 0 holds the seed counts). Only filled when
	// Options.RecordHops is set.
	InfectedAtHop  []int32
	ProtectedAtHop []int32
}

// Model is a two-cascade diffusion model. Implementations must be safe for
// concurrent use: all mutable state lives in the per-call *rng.Source and
// the returned Result.
type Model interface {
	// Name identifies the model in reports (e.g. "OPOAO", "DOAM").
	Name() string
	// RunContext simulates both cascades on g from the given rumor and
	// protector seed sets. src supplies randomness; deterministic models
	// ignore it (nil is allowed for them). Seed sets should be disjoint;
	// nodes present in both are protected, per the P-priority rule. The
	// step loop honors ctx: a canceled context makes RunContext return
	// promptly with an error wrapping ctx.Err().
	RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error)
}

// RunModelContext runs m under ctx after a nil-model and up-front
// cancellation check.
func RunModelContext(ctx context.Context, m Model, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if m == nil {
		return nil, fmt.Errorf("diffusion: run: nil model")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("diffusion: %s: %w", m.Name(), err)
	}
	return m.RunContext(ctx, g, rumors, protectors, src, opts)
}

// checkHop reports cancellation from inside a model's step loop, naming the
// model and the hop reached so operators can see how far the run got.
func checkHop(ctx context.Context, name string, hop int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("diffusion: %s: canceled at hop %d: %w", name, hop, err)
	}
	return nil
}

// seedState validates the seed sets and returns the initial status array.
func seedState(g *graph.Graph, rumors, protectors []int32) ([]Status, error) {
	status := make([]Status, g.NumNodes())
	for _, r := range rumors {
		if r < 0 || r >= g.NumNodes() {
			return nil, fmt.Errorf("diffusion: rumor seed %d out of range [0,%d)", r, g.NumNodes())
		}
		status[r] = Infected
	}
	for _, p := range protectors {
		if p < 0 || p >= g.NumNodes() {
			return nil, fmt.Errorf("diffusion: protector seed %d out of range [0,%d)", p, g.NumNodes())
		}
		status[p] = Protected // P wins overlaps by rule 2
	}
	return status, nil
}

// recordHop appends cumulative counts to the result when recording is on.
func (r *Result) recordHop(opts Options, infected, protected int32) {
	if opts.RecordHops {
		r.InfectedAtHop = append(r.InfectedAtHop, infected)
		r.ProtectedAtHop = append(r.ProtectedAtHop, protected)
	}
}
