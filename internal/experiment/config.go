// Package experiment reproduces the paper's evaluation: the OPOAO
// infected-versus-hops figures (Figs. 4-6), the DOAM protector-count table
// (Table I) and the DOAM infected-versus-hops figures (Figs. 7-9), on
// calibrated synthetic stand-ins for the Enron and Hep networks.
//
// Every experiment is described by a Config; the paper's six figures and
// one table have canonical constructors (Fig4 .. Fig9, Table1) that accept
// a scale factor so the same experiment can run minutes-fast in tests and
// at full size from the command-line harness.
package experiment

import (
	"fmt"

	"lcrb/internal/gen"
)

// Dataset selects the calibrated network profile.
type Dataset string

const (
	// Hep is the arXiv High-Energy-Physics collaboration profile:
	// 15 233 nodes, symmetric edges, average degree 7.73.
	Hep Dataset = "hep"
	// Enron is the Enron email profile: 36 692 nodes, directed edges,
	// average degree 10.0.
	Enron Dataset = "enron"
)

// Config describes one experiment.
type Config struct {
	// Name is the experiment identifier ("fig4", "table1-hep308", ...).
	Name string
	// Title is the human-readable description shown in reports.
	Title string
	// Dataset picks the network profile.
	Dataset Dataset
	// Scale shrinks the profile's node count (1.0 = paper size).
	Scale float64
	// Seed drives network generation and every random draw downstream.
	Seed uint64
	// CommunityTarget is the paper's rumor-community size; it is scaled
	// by Scale (with a floor) before the closest detected community is
	// picked.
	CommunityTarget int32
	// RumorFractions lists |R| as fractions of the community size; each
	// produces one figure panel or table row.
	RumorFractions []float64
	// Hops is the simulated horizon (the paper uses 31).
	Hops int
	// MCSamples is the Monte-Carlo sample count for OPOAO hop series.
	MCSamples int
	// GreedySamples is the Monte-Carlo sample count inside the LCRB-P
	// greedy's σ̂ estimator.
	GreedySamples int
	// Workers parallelizes σ̂ evaluation inside the LCRB-P greedy (see
	// core.GreedyOptions.Workers): 0 or 1 means serial, negative means
	// GOMAXPROCS. Results are bit-identical for every worker count, so
	// Workers never appears in checkpoint fingerprints.
	Workers int
	// Trials averages Table I rows over this many rumor-seed draws.
	Trials int
	// UseLabelProp switches the community-detection front end from
	// Louvain to label propagation (ablation).
	UseLabelProp bool
}

// withDefaults fills unset tuning fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Hops == 0 {
		c.Hops = 31
	}
	if c.MCSamples == 0 {
		c.MCSamples = 50
	}
	if c.GreedySamples == 0 {
		c.GreedySamples = 20
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if len(c.RumorFractions) == 0 {
		c.RumorFractions = []float64{0.05}
	}
	return c
}

// validate rejects malformed configs.
func (c Config) validate() error {
	if c.Dataset != Hep && c.Dataset != Enron {
		return fmt.Errorf("experiment: unknown dataset %q", c.Dataset)
	}
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiment: scale %v out of (0,1]", c.Scale)
	}
	if c.CommunityTarget <= 0 {
		return fmt.Errorf("experiment: community target %d must be positive", c.CommunityTarget)
	}
	for _, f := range c.RumorFractions {
		if f <= 0 || f > 1 {
			return fmt.Errorf("experiment: rumor fraction %v out of (0,1]", f)
		}
	}
	return nil
}

// profile resolves the dataset's generator config at the experiment scale.
func (c Config) profile() (gen.CommunityConfig, error) {
	switch c.Dataset {
	case Hep:
		return gen.HepProfile(c.Scale, c.Seed)
	case Enron:
		return gen.EnronProfile(c.Scale, c.Seed)
	default:
		return gen.CommunityConfig{}, fmt.Errorf("experiment: unknown dataset %q", c.Dataset)
	}
}

// scaledCommunityTarget shrinks the paper's community size with the
// network, keeping a floor so scaled-down runs still have a community —
// and a bridge-end set — worth attacking. Below the floor the experiments
// degenerate (a one-seed budget and a handful of bridge ends no longer
// separate the algorithms).
func (c Config) scaledCommunityTarget() int32 {
	t := int32(float64(c.CommunityTarget) * c.Scale)
	const floor = 60
	if t < floor {
		t = floor
	}
	return t
}

// Fig4 is the paper's Figure 4: OPOAO infected counts on the Hep network,
// community ≈ 308, curves Greedy/Proximity/MaxDegree/NoBlocking.
func Fig4(scale float64) Config {
	return Config{
		Name: "fig4", Title: "Infected nodes, OPOAO, Hep (|C|=308, |B|=387)",
		Dataset: Hep, Scale: scale, Seed: 0x0401,
		CommunityTarget: 308, RumorFractions: []float64{0.1},
	}.withDefaults()
}

// Fig5 is Figure 5: OPOAO on Enron with the small community (|C| = 80).
func Fig5(scale float64) Config {
	return Config{
		Name: "fig5", Title: "Infected nodes, OPOAO, Enron (|C|=80, |B|=135)",
		Dataset: Enron, Scale: scale, Seed: 0x0501,
		CommunityTarget: 80, RumorFractions: []float64{0.1},
	}.withDefaults()
}

// Fig6 is Figure 6: OPOAO on Enron with the large community (|C| = 2631).
func Fig6(scale float64) Config {
	return Config{
		Name: "fig6", Title: "Infected nodes, OPOAO, Enron (|C|=2631, |B|=2250)",
		Dataset: Enron, Scale: scale, Seed: 0x0601,
		CommunityTarget: 2631, RumorFractions: []float64{0.05},
	}.withDefaults()
}

// Table1 returns the three Table I blocks: Hep/308 with |R| of 1/5/10% of
// |C|, Enron/80 with 5/10/20%, and Enron/2631 with 1/5/10%.
func Table1(scale float64) []Config {
	return []Config{
		Config{
			Name: "table1-hep308", Title: "Table I block: Hep/15233/308",
			Dataset: Hep, Scale: scale, Seed: 0x1101,
			CommunityTarget: 308, RumorFractions: []float64{0.01, 0.05, 0.10},
		}.withDefaults(),
		Config{
			Name: "table1-email80", Title: "Table I block: Email/36692/80",
			Dataset: Enron, Scale: scale, Seed: 0x1201,
			CommunityTarget: 80, RumorFractions: []float64{0.05, 0.10, 0.20},
		}.withDefaults(),
		Config{
			Name: "table1-email2631", Title: "Table I block: Email/36692/2631",
			Dataset: Enron, Scale: scale, Seed: 0x1301,
			CommunityTarget: 2631, RumorFractions: []float64{0.01, 0.05, 0.10},
		}.withDefaults(),
	}
}

// Fig7 is Figure 7: DOAM infected counts on Hep/308, one panel per rumor
// fraction, protector budget fixed by the SCBG solution size.
func Fig7(scale float64) Config {
	return Config{
		Name: "fig7", Title: "Infected nodes, DOAM, Hep (|C|=308, |B|=387)",
		Dataset: Hep, Scale: scale, Seed: 0x0701,
		CommunityTarget: 308, RumorFractions: []float64{0.01, 0.05, 0.10},
	}.withDefaults()
}

// Fig8 is Figure 8: DOAM on Enron with the small community.
func Fig8(scale float64) Config {
	return Config{
		Name: "fig8", Title: "Infected nodes, DOAM, Enron (|C|=80, |B|=135)",
		Dataset: Enron, Scale: scale, Seed: 0x0801,
		CommunityTarget: 80, RumorFractions: []float64{0.05, 0.10, 0.20},
	}.withDefaults()
}

// Fig9 is Figure 9: DOAM on Enron with the large community.
func Fig9(scale float64) Config {
	return Config{
		Name: "fig9", Title: "Infected nodes, DOAM, Enron (|C|=2631, |B|=2250)",
		Dataset: Enron, Scale: scale, Seed: 0x0901,
		CommunityTarget: 2631, RumorFractions: []float64{0.01, 0.05, 0.10},
	}.withDefaults()
}
