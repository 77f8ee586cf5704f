package diffusion

import (
	"context"
	"errors"
	"sync"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// OPOAO is the Opportunistic One-Activate-One model: at every step, every
// active node picks one of its out-neighbours uniformly at random as an
// activation target (repeat selection allowed, no memory of past picks).
// Inactive targets adopt the picker's cascade at the next step, with
// protector proposals taking priority over rumor proposals on the same
// target. The process is the paper's person-to-person contact mechanism.
type OPOAO struct{}

var _ Model = OPOAO{}

// Name implements Model.
func (OPOAO) Name() string { return "OPOAO" }

// RunContext implements Model. It requires a non-nil random source.
func (OPOAO) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts Options) (*Result, error) {
	if src == nil {
		return nil, errors.New("diffusion: OPOAO requires a random source")
	}
	chooser := func(u int32, step int32, deg int32) int32 {
		return src.Int32n(deg)
	}
	return runOPOAO(ctx, g, rumors, protectors, chooser, opts)
}

// RunOPOAORealization simulates OPOAO under a fixed realization of the
// random activation choices, identified by realSeed: node u's target pick
// at step t is a pure function of (realSeed, u, t). Re-running with the
// same realSeed and different protector seeds therefore reuses *the same*
// randomness — the common-random-numbers construction behind the paper's
// timestamp argument, and what makes |PB(S)| a deterministic submodular set
// function per realization (Lemma 4).
func RunOPOAORealization(g *graph.Graph, rumors, protectors []int32, realSeed uint64, opts Options) (*Result, error) {
	chooser := func(u int32, step int32, deg int32) int32 {
		return FixedChoice(realSeed, u, step, deg)
	}
	return runOPOAO(context.Background(), g, rumors, protectors, chooser, opts)
}

// FixedChoice is the activation choice of the fixed OPOAO realization
// identified by seed: the index of the out-neighbour that node u targets at
// the given step, in [0, deg). It is the pure function behind
// RunOPOAORealization, exported so reverse-reachability samplers
// (internal/sketch) can traverse exactly the same realization backwards.
func FixedChoice(seed uint64, u, step, deg int32) int32 {
	x := seed ^ (uint64(uint32(u))<<32 | uint64(uint32(step)))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// deg is small; modulo bias is negligible for simulation purposes.
	return int32(x % uint64(deg))
}

// runOPOAO is the shared engine. chooser(u, step, deg) returns the index of
// the out-neighbour u targets at the given step.
func runOPOAO(ctx context.Context, g *graph.Graph, rumors, protectors []int32, chooser func(u, step, deg int32) int32, opts Options) (*Result, error) {
	status, err := seedState(g, rumors, protectors)
	if err != nil {
		return nil, err
	}
	res := &Result{Status: status}
	s := opoaoScratchPool.Get().(*opoaoScratch)
	defer opoaoScratchPool.Put(s)
	s.reset(int(g.NumNodes()))

	// active holds every currently active node, in activation order; each
	// keeps acting every step until the run ends.
	active := s.active
	var infected, protected int32
	for u, st := range status {
		switch st {
		case Infected:
			infected++
			active = append(active, int32(u))
		case Protected:
			protected++
			active = append(active, int32(u))
		}
	}
	res.recordHop(opts, infected, protected)

	// Reachable-set upper bound for early exit: once every node reachable
	// from any seed is active, nothing more can happen.
	potential := s.reachable(g, active)

	opts.emitSeeds(status)

	// Proposals of the current step: proposedBy[v] records which cascade
	// claims v this step, with P overriding R; proposer[v] remembers the
	// claiming node for tracing. Reset lazily via stamp.
	proposedBy, proposer, stamp := s.proposedBy, s.proposer, s.stamp
	newlyActive := s.newlyActive

	maxHops := opts.maxHops()
	hop := 0
	for ; hop < maxHops && int32(len(active)) < potential; hop++ {
		if err := checkHop(ctx, "OPOAO", hop); err != nil {
			return nil, err
		}
		step := int32(hop + 1)
		newlyActive = newlyActive[:0]
		for _, u := range active {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			v := g.Out(u)[chooser(u, step, deg)]
			if status[v] != Inactive {
				continue
			}
			if stamp[v] != step {
				stamp[v] = step
				proposedBy[v] = status[u]
				proposer[v] = u
				newlyActive = append(newlyActive, v)
			} else if status[u] == Protected && proposedBy[v] != Protected {
				proposedBy[v] = Protected // P priority on simultaneous arrival
				proposer[v] = u
			}
		}
		if len(newlyActive) == 0 {
			res.recordHop(opts, infected, protected)
			continue
		}
		for _, v := range newlyActive {
			status[v] = proposedBy[v]
			if proposedBy[v] == Protected {
				protected++
			} else {
				infected++
			}
			opts.emit(hop+1, v, proposedBy[v], proposer[v])
		}
		active = append(active, newlyActive...)
		res.recordHop(opts, infected, protected)
	}
	s.active, s.newlyActive = active, newlyActive // keep the grown buffers
	res.Hops = hop
	res.Infected = infected
	res.Protected = protected
	return res, nil
}

// opoaoScratch is runOPOAO's working memory, pooled because the greedy's
// σ̂ estimates run thousands of simulations per solve: allocating it per
// run made those simulations the bulk of a serving process's garbage.
// Only Result.Status, which the caller keeps, is allocated per run.
type opoaoScratch struct {
	proposedBy  []Status
	proposer    []int32
	stamp       []int32
	active      []int32
	newlyActive []int32
	seen        []bool
	queue       []int32
}

var opoaoScratchPool = sync.Pool{New: func() any { return new(opoaoScratch) }}

// reset sizes the scratch for an n-node graph. stamp and seen start
// zeroed; proposedBy and proposer are read only where stamp is current.
func (s *opoaoScratch) reset(n int) {
	if cap(s.stamp) < n {
		s.proposedBy = make([]Status, n)
		s.proposer = make([]int32, n)
		s.stamp = make([]int32, n)
		s.seen = make([]bool, n)
	} else {
		s.proposedBy, s.proposer = s.proposedBy[:n], s.proposer[:n]
		s.stamp, s.seen = s.stamp[:n], s.seen[:n]
		clear(s.stamp)
		clear(s.seen)
	}
	s.active, s.newlyActive = s.active[:0], s.newlyActive[:0]
}

// reachable counts the nodes forward-reachable from the distinct seeds:
// graph.Reachable on the scratch's buffers instead of two fresh arrays.
func (s *opoaoScratch) reachable(g *graph.Graph, seeds []int32) int32 {
	queue := append(s.queue[:0], seeds...)
	for _, u := range seeds {
		s.seen[u] = true
	}
	for head := 0; head < len(queue); head++ {
		for _, v := range g.Out(queue[head]) {
			if !s.seen[v] {
				s.seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return int32(len(queue))
}
