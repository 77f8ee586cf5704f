package lcrb_test

import (
	"context"
	"sync"
	"testing"

	"lcrb/internal/experiment"
)

// The paper-shape integration tests run every evaluation experiment at a
// reduced scale and assert the paper's qualitative claims hold: who wins,
// who loses, and where the curves flatten. All runs are fully seeded, so
// these tests are deterministic.

// shapeScale trades fidelity for speed; see EXPERIMENTS.md for the
// full-size numbers.
const shapeScale = 0.05

// shapeTolerance absorbs Monte-Carlo noise in the OPOAO comparisons.
const shapeTolerance = 0.15

// fastShape shrinks a config's sampling budgets for test speed.
func fastShape(cfg experiment.Config) experiment.Config {
	cfg.MCSamples = 15
	cfg.GreedySamples = 8
	cfg.Trials = 2
	return cfg
}

// shapeCache shares instances between shape tests within the run.
var (
	shapeMu    sync.Mutex
	shapeCache = make(map[string]*experiment.Instance)
)

func shapeInstance(t *testing.T, cfg experiment.Config) *experiment.Instance {
	t.Helper()
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if inst, ok := shapeCache[cfg.Name]; ok {
		return inst
	}
	inst, err := experiment.Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shapeCache[cfg.Name] = inst
	return inst
}

func checkOPOAOFigure(t *testing.T, cfg experiment.Config) {
	t.Helper()
	inst := shapeInstance(t, fastShape(cfg))
	fr, err := experiment.RunFigureOPOAOContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	report := experiment.CheckFigureOPOAO(fr, shapeTolerance)
	for _, issue := range report.Issues {
		t.Errorf("%s: %s", cfg.Name, issue)
	}
	if report.Checks == 0 {
		t.Fatalf("%s: no shape checks ran", cfg.Name)
	}
}

func checkDOAMFigure(t *testing.T, cfg experiment.Config) {
	t.Helper()
	inst := shapeInstance(t, fastShape(cfg))
	fr, err := experiment.RunFigureDOAMContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	report := experiment.CheckFigureDOAM(fr, shapeTolerance)
	for _, issue := range report.Issues {
		t.Errorf("%s: %s", cfg.Name, issue)
	}
	if report.Checks == 0 {
		t.Fatalf("%s: no shape checks ran", cfg.Name)
	}
}

// TestShapeFig4 asserts Figure 4's claims: on the sparse Hep network under
// OPOAO, Greedy ends with the fewest infected and NoBlocking with the most.
func TestShapeFig4(t *testing.T) { checkOPOAOFigure(t, experiment.Fig4(shapeScale)) }

// TestShapeFig5 asserts Figure 5's claims on the small Enron community.
func TestShapeFig5(t *testing.T) { checkOPOAOFigure(t, experiment.Fig5(shapeScale)) }

// TestShapeFig6 asserts Figure 6's claims on the large Enron community.
func TestShapeFig6(t *testing.T) { checkOPOAOFigure(t, experiment.Fig6(shapeScale)) }

// TestShapeFig7 asserts Figure 7's claims: under DOAM the cascade
// saturates within ~4 hops and SCBG protects the most nodes.
func TestShapeFig7(t *testing.T) { checkDOAMFigure(t, experiment.Fig7(shapeScale)) }

// TestShapeFig8 asserts Figure 8's claims on the small Enron community.
func TestShapeFig8(t *testing.T) { checkDOAMFigure(t, experiment.Fig8(shapeScale)) }

// TestShapeFig9 asserts Figure 9's claims on the large Enron community.
func TestShapeFig9(t *testing.T) { checkDOAMFigure(t, experiment.Fig9(shapeScale)) }

// TestShapeTable1 asserts Table I's claims block by block: SCBG selects the
// fewest protectors (the paper's own Hep small-|R| exception allowed), and
// SCBG's seed count grows more slowly with |R| than Proximity's.
func TestShapeTable1(t *testing.T) {
	for _, cfg := range experiment.Table1(shapeScale) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			inst := shapeInstance(t, fastShape(cfg))
			tr, err := experiment.RunTableContext(context.Background(), inst)
			if err != nil {
				t.Fatal(err)
			}
			allowProximityWin := cfg.Dataset == experiment.Hep
			report := experiment.CheckTable(tr, allowProximityWin)
			for _, issue := range report.Issues {
				t.Errorf("%s: %s", cfg.Name, issue)
			}
			// Structural sanity: rumor counts must grow down the rows.
			for i := 1; i < len(tr.Rows); i++ {
				if tr.Rows[i].NumRumors < tr.Rows[i-1].NumRumors {
					t.Errorf("%s: rumor counts not increasing: %d then %d",
						cfg.Name, tr.Rows[i-1].NumRumors, tr.Rows[i].NumRumors)
				}
			}
		})
	}
}

// TestShapeOPOAOFlattens asserts the paper's observation that after ~32
// hops the OPOAO curves barely move: the last five hops of the NoBlocking
// series contribute under 10% of the final infected count.
func TestShapeOPOAOFlattens(t *testing.T) {
	inst := shapeInstance(t, fastShape(experiment.Fig4(shapeScale)))
	fr, err := experiment.RunFigureOPOAOContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range fr.Panels {
		series := panel.Series[experiment.AlgoNoBlocking]
		if len(series) < 6 {
			t.Fatal("series too short")
		}
		last := series[len(series)-1]
		fiveBack := series[len(series)-6]
		if last == 0 {
			continue
		}
		if (last-fiveBack)/last > 0.10 {
			t.Errorf("NoBlocking still growing fast at the horizon: %.1f -> %.1f", fiveBack, last)
		}
	}
}
