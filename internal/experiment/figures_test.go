package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// smallOPOAOConfig is a fast Figure-4-style config for tests.
func smallOPOAOConfig() Config {
	return Config{
		Name: "fig4-test", Title: "test figure",
		Dataset: Hep, Scale: 0.04, Seed: 0xF4,
		CommunityTarget: 308, RumorFractions: []float64{0.08},
		Hops: 20, MCSamples: 10, GreedySamples: 6, Trials: 2,
	}.withDefaults()
}

// smallDOAMConfig is a fast Figure-7/Table-I-style config for tests.
func smallDOAMConfig() Config {
	return Config{
		Name: "fig7-test", Title: "test figure",
		Dataset: Hep, Scale: 0.04, Seed: 0xF7,
		CommunityTarget: 308, RumorFractions: []float64{0.05, 0.1},
		Hops: 20, MCSamples: 10, GreedySamples: 6, Trials: 2,
	}.withDefaults()
}

func TestRunFigureOPOAO(t *testing.T) {
	inst, err := Setup(smallOPOAOConfig())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFigureOPOAOContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Panels) != 1 {
		t.Fatalf("panels = %d, want 1", len(fr.Panels))
	}
	panel := fr.Panels[0]
	for _, algo := range []string{AlgoGreedy, AlgoProximity, AlgoMaxDegree, AlgoNoBlocking} {
		series, ok := panel.Series[algo]
		if !ok {
			t.Fatalf("missing series for %s", algo)
		}
		if len(series) != inst.Config.Hops+1 {
			t.Fatalf("%s series length = %d, want %d", algo, len(series), inst.Config.Hops+1)
		}
		// Infected counts start at |R| and never decrease.
		if series[0] != float64(panel.NumRumors) {
			t.Fatalf("%s series starts at %.1f, want |R| = %d", algo, series[0], panel.NumRumors)
		}
		for h := 1; h < len(series); h++ {
			if series[h] < series[h-1] {
				t.Fatalf("%s series decreases at hop %d", algo, h)
			}
		}
	}
	if panel.Protectors[AlgoNoBlocking] != 0 {
		t.Fatal("NoBlocking used protectors")
	}
	// Equal budgets: heuristics get exactly the greedy's seed count
	// (unless their candidate pool ran short, which cannot exceed it).
	k := panel.Protectors[AlgoGreedy]
	if panel.Protectors[AlgoMaxDegree] > k || panel.Protectors[AlgoProximity] > k {
		t.Fatalf("heuristic got more protectors than greedy: %+v", panel.Protectors)
	}
}

func TestRunFigureDOAM(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFigureDOAMContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Panels) != 2 {
		t.Fatalf("panels = %d, want 2", len(fr.Panels))
	}
	for pi, panel := range fr.Panels {
		for _, algo := range []string{AlgoSCBG, AlgoProximity, AlgoMaxDegree, AlgoNoBlocking} {
			series, ok := panel.Series[algo]
			if !ok {
				t.Fatalf("panel %d: missing series for %s", pi, algo)
			}
			if len(series) != inst.Config.Hops+1 {
				t.Fatalf("panel %d: %s series length = %d", pi, algo, len(series))
			}
		}
		// Budgets: heuristics receive at most the SCBG size.
		if panel.Protectors[AlgoProximity] > panel.Budget || panel.Protectors[AlgoMaxDegree] > panel.Budget {
			t.Fatalf("panel %d: budget exceeded: %+v vs %d", pi, panel.Protectors, panel.Budget)
		}
		// SCBG must block at least as well as no blocking.
		if final(panel.Series[AlgoSCBG]) > final(panel.Series[AlgoNoBlocking]) {
			t.Fatalf("panel %d: SCBG infected more than NoBlocking", pi)
		}
	}
}

func TestRunTable(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTableContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tr.Rows))
	}
	for i, row := range tr.Rows {
		if row.NumRumors < 1 {
			t.Fatalf("row %d: no rumors", i)
		}
		if row.SCBG < 0 || row.Proximity < 0 || row.MaxDegree < 0 {
			t.Fatalf("row %d: negative counts: %+v", i, row)
		}
		if row.MeanEnds > 0 && row.SCBG == 0 {
			// Possible only when the baseline already protects everything,
			// which DOAM cannot do without protectors when ends exist and
			// are reachable — ends are reachable by construction.
			t.Fatalf("row %d: ends exist but SCBG selected nothing", i)
		}
	}
}

func TestWriteFigureOutputs(t *testing.T) {
	inst, err := Setup(smallOPOAOConfig())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFigureOPOAOContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, fr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig4-test", "hop", AlgoGreedy, AlgoNoBlocking, "budget"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteFigureCSV(&buf, fr); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "experiment,rumor_fraction,algorithm,hop,mean_infected\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "fig4-test,0.08,Greedy,0,") {
		t.Fatalf("CSV missing greedy rows:\n%s", csv)
	}
}

func TestWriteTableOutputs(t *testing.T) {
	tr := &TableResult{
		Config: Config{Name: "table1-test", Title: "test"},
		Rows: []TableRow{
			{RumorFraction: 0.05, NumRumors: 3, MeanEnds: 12, SCBG: 2.5, Proximity: 5.1, MaxDegree: 9.9, Trials: 2},
			{RumorFraction: 0.10, NumRumors: 6, MeanEnds: 13, SCBG: 3.0, Proximity: 7.2, MaxDegree: 11.0, Trials: 2, ProximityShort: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table1-test", "SCBG", "2.5", "proximity short in 1/2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTableCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "table1-test,0.05,3,12.00,2.50,5.10,9.90") {
		t.Fatalf("CSV row missing:\n%s", buf.String())
	}
}

func TestShapeChecksOnSyntheticData(t *testing.T) {
	good := &FigureResult{
		Config: Config{Name: "x"},
		Panels: []Panel{{
			Series: map[string][]float64{
				AlgoGreedy:     {1, 2, 3},
				AlgoProximity:  {1, 3, 5},
				AlgoMaxDegree:  {1, 4, 6},
				AlgoNoBlocking: {1, 6, 9},
			},
		}},
	}
	if r := CheckFigureOPOAO(good, 0.01); !r.Ok() {
		t.Fatalf("good figure flagged: %v", r.Issues)
	}
	bad := &FigureResult{
		Config: Config{Name: "x"},
		Panels: []Panel{{
			Series: map[string][]float64{
				AlgoGreedy:     {1, 9, 20}, // worse than everything
				AlgoProximity:  {1, 3, 5},
				AlgoMaxDegree:  {1, 4, 6},
				AlgoNoBlocking: {1, 6, 9},
			},
		}},
	}
	if r := CheckFigureOPOAO(bad, 0.01); r.Ok() {
		t.Fatal("bad figure passed")
	}
	decreasing := &FigureResult{
		Config: Config{Name: "x"},
		Panels: []Panel{{
			Series: map[string][]float64{
				AlgoGreedy:     {3, 2, 1},
				AlgoNoBlocking: {1, 6, 9},
			},
		}},
	}
	if r := CheckFigureOPOAO(decreasing, 0.01); r.Ok() {
		t.Fatal("decreasing series passed")
	}
}

func TestShapeChecksDOAM(t *testing.T) {
	// flat extends a short cumulative series to length n with its final value.
	flat := func(s []float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			if i < len(s) {
				out[i] = s[i]
			} else {
				out[i] = s[len(s)-1]
			}
		}
		return out
	}
	good := &FigureResult{
		Config: Config{Name: "x"},
		Panels: []Panel{{
			Series: map[string][]float64{
				AlgoSCBG:       flat([]float64{1, 2}, 15),
				AlgoProximity:  flat([]float64{1, 4, 7}, 15),
				AlgoMaxDegree:  flat([]float64{1, 5, 9}, 15),
				AlgoNoBlocking: flat([]float64{1, 8, 20}, 15),
			},
		}},
	}
	if r := CheckFigureDOAM(good, 0.05); !r.Ok() {
		t.Fatalf("good DOAM figure flagged: %v", r.Issues)
	}
	// NoBlocking still far from its final size at the saturation hop.
	slow := make([]float64, 15)
	for i := range slow {
		slow[i] = float64(i + 1)
	}
	slow[len(slow)-1] = 100
	slowSaturation := &FigureResult{
		Config: Config{Name: "x"},
		Panels: []Panel{{
			Series: map[string][]float64{
				AlgoSCBG:       flat([]float64{1}, 15),
				AlgoNoBlocking: slow,
			},
		}},
	}
	if r := CheckFigureDOAM(slowSaturation, 0.05); r.Ok() {
		t.Fatal("slow saturation passed the saturation-hop check")
	}
}

func TestCheckTableShapes(t *testing.T) {
	good := &TableResult{Rows: []TableRow{
		{SCBG: 5, Proximity: 10, MaxDegree: 20},
		{SCBG: 7, Proximity: 30, MaxDegree: 40},
	}}
	if r := CheckTable(good, false); !r.Ok() {
		t.Fatalf("good table flagged: %v", r.Issues)
	}
	proximityWinsFirst := &TableResult{Rows: []TableRow{
		{SCBG: 30, Proximity: 25, MaxDegree: 140},
		{SCBG: 42, Proximity: 74, MaxDegree: 147},
	}}
	if r := CheckTable(proximityWinsFirst, true); !r.Ok() {
		t.Fatalf("paper's own Hep exception flagged: %v", r.Issues)
	}
	if r := CheckTable(proximityWinsFirst, false); r.Ok() {
		t.Fatal("proximity win passed without the exception")
	}
	scbgLoses := &TableResult{Rows: []TableRow{
		{SCBG: 50, Proximity: 10, MaxDegree: 20},
		{SCBG: 60, Proximity: 11, MaxDegree: 21},
	}}
	if r := CheckTable(scbgLoses, false); r.Ok() {
		t.Fatal("SCBG losing every row passed")
	}
}
