package experiment

import (
	"fmt"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// Instance is a materialized experiment environment: the generated network,
// its detected community structure and the selected rumor community.
type Instance struct {
	// Config echoes the (defaulted) configuration.
	Config Config
	// Net is the generated network with its planted communities.
	Net *gen.Network
	// Part is the Louvain partition.
	Part *community.Partition
	// Community is the selected rumor community identifier in Part.
	Community int32
	// Members lists the rumor community's nodes.
	Members []int32
}

// Setup generates the network, detects communities and picks the rumor
// community whose size is closest to the (scaled) paper target.
func Setup(cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	profile, err := cfg.profile()
	if err != nil {
		return nil, err
	}
	net, err := gen.Community(profile)
	if err != nil {
		return nil, fmt.Errorf("experiment: generate %s network: %w", cfg.Dataset, err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: cfg.Seed + 1})
	comm := part.ClosestBySize(cfg.scaledCommunityTarget())
	inst := &Instance{
		Config:    cfg,
		Net:       net,
		Part:      part,
		Community: comm,
		Members:   part.Members(comm),
	}
	if len(inst.Members) == 0 {
		return nil, fmt.Errorf("experiment: selected community %d is empty", comm)
	}
	return inst, nil
}

// NewProblem draws max(1, fraction*|C|) rumor seeds from the selected
// community and assembles the LCRB problem instance around them. It is the
// one place rumor sampling and problem construction meet, so every
// consumer — figures, tables, ablations, the serving daemon — builds
// problems the same way and stays bit-identical for a given src state.
func (inst *Instance) NewProblem(fraction float64, src *rng.Source) (*core.Problem, error) {
	rumors := inst.drawRumors(fraction, src)
	return core.NewProblem(inst.Net.Graph, inst.Part.Assign(), inst.Community, rumors)
}

// NewProblemOn is NewProblem rebound to a different graph — a dynamic
// snapshot of the instance's network after mutation batches. The rumor draw
// is bit-identical to NewProblem's for an equal src state (it depends only
// on the community membership, which mutation never renumbers), the
// community assignment is the originally detected partition extended with
// -1 (no community) for nodes born after detection, and the bridge ends are
// recomputed on g. Static callers and dynamic callers therefore build the
// same rumor sets and differ only where the graph itself differs.
func (inst *Instance) NewProblemOn(g *graph.Graph, fraction float64, src *rng.Source) (*core.Problem, error) {
	if g == nil {
		return nil, fmt.Errorf("experiment: problem on snapshot: nil graph")
	}
	if g.NumNodes() < inst.Net.Graph.NumNodes() {
		return nil, fmt.Errorf("experiment: problem on snapshot: graph has %d nodes, instance has %d (dynamic ids are dense and never shrink)",
			g.NumNodes(), inst.Net.Graph.NumNodes())
	}
	rumors := inst.drawRumors(fraction, src)
	assign := append([]int32(nil), inst.Part.Assign()...)
	for int32(len(assign)) < g.NumNodes() {
		assign = append(assign, -1)
	}
	return core.NewProblem(g, assign, inst.Community, rumors)
}

// drawRumors samples max(1, fraction*|C|) distinct rumor seeds from the
// community members.
func (inst *Instance) drawRumors(fraction float64, src *rng.Source) []int32 {
	k := int32(fraction * float64(len(inst.Members)))
	if k < 1 {
		k = 1
	}
	if int(k) > len(inst.Members) {
		k = int32(len(inst.Members))
	}
	idx := src.SampleInt32(int32(len(inst.Members)), k)
	rumors := make([]int32, len(idx))
	for i, j := range idx {
		rumors[i] = inst.Members[j]
	}
	return rumors
}
