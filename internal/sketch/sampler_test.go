package sketch

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
	"lcrb/internal/rrset"
)

// blockProblem cuts g into consecutive blocks of size nodes and seeds the
// rumor at the given members of block 0.
func blockProblem(t *testing.T, g *graph.Graph, size int32, rumors []int32) *core.Problem {
	t.Helper()
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v) / size
	}
	p, err := core.NewProblem(g, assign, 0, rumors)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// samplerInstances are the differential test's problems: planted
// communities, and Erdős–Rényi graphs sparse enough to leave ends the
// rumor never reaches and nodes without out-edges.
func samplerInstances(t *testing.T) map[string]*core.Problem {
	t.Helper()
	out := make(map[string]*core.Problem)
	for _, seed := range []uint64{3, 8} {
		net, err := gen.Community(gen.CommunityConfig{Nodes: 700, AvgDegree: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		planted, err := community.FromAssignment(net.Communities)
		if err != nil {
			t.Fatal(err)
		}
		comm := planted.ClosestBySize(150)
		members := planted.Members(comm)
		p, err := core.NewProblem(net.Graph, planted.Assign(), comm, members[:4])
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("community seed=%d", seed)] = p
	}
	for _, c := range []struct {
		n    int32
		m    int
		seed uint64
	}{{500, 900, 5}, {400, 2400, 6}} {
		g, err := gen.ErdosRenyi(c.n, c.m, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("er n=%d m=%d", c.n, c.m)] = blockProblem(t, g, 100, []int32{0, 1, 2, 3, 4, 5})
	}
	return out
}

// TestSweepMatchesReferenceSampler holds the level sweep to the retired
// per-end backward search (refsampler_test.go): every realization's pairs,
// baseline count and footprint must be identical, across horizons on both
// sides of a 64-bit word and with footprints on and off.
func TestSweepMatchesReferenceSampler(t *testing.T) {
	var unreached, mixedBatches, sinkEnds, realizations int
	for name, p := range samplerInstances(t) {
		if p.NumEnds() == 0 {
			t.Fatalf("%s: no bridge ends", name)
		}
		for _, hops := range []int{1, 31, 63, 64, 100} {
			for _, footprints := range []bool{false, true} {
				sc := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, hops, footprints).NewScratch()
				ref := newRefScratch(p, hops, footprints)
				seeds := rng.New(uint64(hops))
				for r := int32(0); r < 6; r++ {
					seed := seeds.Uint64()
					pairs, base, foot := sc.Sample(seed, r)
					wantPairs, wantBase, wantFoot := ref.sample(seed, r)
					where := fmt.Sprintf("%s hops=%d footprints=%v realization %d", name, hops, footprints, r)
					if (len(pairs) > 0 || len(wantPairs) > 0) && !reflect.DeepEqual(pairs, wantPairs) {
						t.Fatalf("%s: pairs differ from the reference sampler", where)
					}
					if base != wantBase {
						t.Fatalf("%s: baseline %d, reference %d", where, base, wantBase)
					}
					if !reflect.DeepEqual(foot, wantFoot) {
						t.Fatalf("%s: footprint differs from the reference sampler", where)
					}
					realizations++
					unreached += base
					// The first batch of 64 coverable ends, in t_R order,
					// spans more than one arrival hop.
					arr := sc.Arrivals(seed)
					var order []int32
					for _, pr := range pairs {
						order = append(order, arr[p.Ends[pr.End]])
					}
					slices.Sort(order)
					if len(order) > 64 && order[0] != order[63] {
						mixedBatches++
					}
					for _, pr := range pairs {
						if p.Graph.OutDegree(p.Ends[pr.End]) == 0 {
							sinkEnds++
						}
					}
				}
			}
		}
	}
	t.Logf("%d realizations: %d unreached ends, %d with a mixed full batch, %d coverable ends without out-edges",
		realizations, unreached, mixedBatches, sinkEnds)
	if unreached == 0 || mixedBatches == 0 || sinkEnds == 0 {
		t.Fatal("the instances do not cover unreached ends, mixed-t_R batches of 64 and coverable sinks")
	}
}

// TestSamplerArrivalsMatchForwardSimulation checks the timing backbone of
// the sampler: the arrival hops of its forward pass must equal the
// activation hops the forward simulator observes on the same fixed
// realization, for a mixed rumor/protector seeding (activation timing is
// label-independent). With footprints the pass runs to the horizon; without
// them it stops once every reachable end has arrived, so it must agree up
// to the last end arrival and leave later nodes unreached.
func TestSamplerArrivalsMatchForwardSimulation(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 800, 11)
	if err != nil {
		t.Fatal(err)
	}
	const realSeed = 77
	const maxHops = 31
	rumors := []int32{0, 1, 2}
	protectors := []int32{50, 51}
	p := blockProblem(t, g, 100, append(append([]int32(nil), rumors...), protectors...))

	tr := diffusion.NewTrace()
	res, err := diffusion.RunOPOAORealization(g, rumors, protectors, realSeed,
		diffusion.Options{MaxHops: maxHops, Observer: tr.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	for _, footprints := range []bool{true, false} {
		sc := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, maxHops, footprints).NewScratch()
		arrivals := sc.Arrivals(realSeed)
		last := int32(0)
		for _, e := range p.Ends {
			last = max(last, arrivals[e])
		}
		for v := int32(0); v < g.NumNodes(); v++ {
			e, activated := tr.Of(v)
			if activated != (res.Status[v] != diffusion.Inactive) {
				t.Fatalf("node %d: trace and status disagree", v)
			}
			arr := arrivals[v]
			if !footprints && activated && int32(e.Hop) > last {
				if arr >= 0 {
					t.Fatalf("node %d: arrival %d after the last end arrival %d", v, arr, last)
				}
				continue
			}
			switch {
			case activated && arr < 0:
				t.Fatalf("footprints=%v: node %d activated at hop %d by the simulator but unreached by the sampler", footprints, v, e.Hop)
			case !activated && arr >= 0:
				t.Fatalf("footprints=%v: node %d has arrival hop %d but the simulator never activated it", footprints, v, arr)
			case activated && int(arr) != e.Hop:
				t.Fatalf("footprints=%v: node %d: arrival hop %d, simulator activated at hop %d", footprints, v, arr, e.Hop)
			}
		}
	}
}

// TestSamplerArrivalsSeedsAndHopBound covers duplicate rumor seeds and the
// hop bound of the forward pass.
func TestSamplerArrivalsSeedsAndHopBound(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := blockProblem(t, g, 25, []int32{3, 3, 7})
	arr := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, 1, true).NewScratch().Arrivals(9)
	if arr[3] != 0 || arr[7] != 0 {
		t.Fatalf("seed arrivals = %d, %d, want 0, 0", arr[3], arr[7])
	}
	for v, a := range arr {
		if a > 1 {
			t.Fatalf("node %d arrived at hop %d with MaxHops 1", v, a)
		}
	}
}
