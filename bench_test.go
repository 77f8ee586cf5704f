// Benchmarks regenerating every table and figure of the paper's evaluation
// (section VI), plus ablations of this implementation's design choices.
//
// Each BenchmarkFigN / BenchmarkTable1* target reruns the corresponding
// experiment at a reduced network scale (the full-size runs are available
// via `go run ./cmd/lcrbbench -scale 1`). Reported custom metrics carry the
// experiment's headline numbers so `go test -bench` output documents the
// reproduction, not just its runtime.
package lcrb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lcrb"
	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/experiment"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
)

// benchScale keeps the paper experiments minutes-fast on one core.
const benchScale = 0.05

// instCache memoizes experiment setups across benchmark iterations.
var (
	instMu    sync.Mutex
	instCache = make(map[string]*experiment.Instance)
)

// getInstance materializes (once) the instance for a config.
func getInstance(b *testing.B, cfg experiment.Config) *experiment.Instance {
	b.Helper()
	instMu.Lock()
	defer instMu.Unlock()
	if inst, ok := instCache[cfg.Name]; ok {
		return inst
	}
	inst, err := experiment.Setup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	instCache[cfg.Name] = inst
	return inst
}

// fastFigure shrinks a figure config's Monte-Carlo budgets for benching.
func fastFigure(cfg experiment.Config) experiment.Config {
	cfg.MCSamples = 15
	cfg.GreedySamples = 8
	cfg.Trials = 2
	return cfg
}

// benchFigureOPOAO is the shared body of the Figure 4-6 benchmarks.
func benchFigureOPOAO(b *testing.B, cfg experiment.Config) {
	inst := getInstance(b, fastFigure(cfg))
	b.ResetTimer()
	var fr *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = experiment.RunFigureOPOAOContext(context.Background(), inst)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fr, experiment.AlgoGreedy)
}

// benchFigureDOAM is the shared body of the Figure 7-9 benchmarks.
func benchFigureDOAM(b *testing.B, cfg experiment.Config) {
	inst := getInstance(b, fastFigure(cfg))
	b.ResetTimer()
	var fr *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = experiment.RunFigureDOAMContext(context.Background(), inst)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fr, experiment.AlgoSCBG)
}

// reportFigure attaches the headline series endpoints as custom metrics.
func reportFigure(b *testing.B, fr *experiment.FigureResult, ours string) {
	if fr == nil || len(fr.Panels) == 0 {
		return
	}
	panel := fr.Panels[0]
	last := func(name string) float64 {
		s := panel.Series[name]
		if len(s) == 0 {
			return 0
		}
		return s[len(s)-1]
	}
	b.ReportMetric(last(ours), "infected_"+ours)
	b.ReportMetric(last(experiment.AlgoProximity), "infected_proximity")
	b.ReportMetric(last(experiment.AlgoMaxDegree), "infected_maxdegree")
	b.ReportMetric(last(experiment.AlgoNoBlocking), "infected_noblocking")
	b.ReportMetric(float64(panel.NumEnds), "bridge_ends")
}

// BenchmarkFig4 reproduces Figure 4: OPOAO infected counts on the Hep
// network (|C| ≈ 308 scaled), Greedy vs Proximity vs MaxDegree vs
// NoBlocking.
func BenchmarkFig4(b *testing.B) { benchFigureOPOAO(b, experiment.Fig4(benchScale)) }

// BenchmarkFig5 reproduces Figure 5: OPOAO on Enron, small community.
func BenchmarkFig5(b *testing.B) { benchFigureOPOAO(b, experiment.Fig5(benchScale)) }

// BenchmarkFig6 reproduces Figure 6: OPOAO on Enron, large community.
func BenchmarkFig6(b *testing.B) { benchFigureOPOAO(b, experiment.Fig6(benchScale)) }

// BenchmarkFig7 reproduces Figure 7: DOAM infected counts on Hep with the
// SCBG-sized protector budget.
func BenchmarkFig7(b *testing.B) { benchFigureDOAM(b, experiment.Fig7(benchScale)) }

// BenchmarkFig8 reproduces Figure 8: DOAM on Enron, small community.
func BenchmarkFig8(b *testing.B) { benchFigureDOAM(b, experiment.Fig8(benchScale)) }

// BenchmarkFig9 reproduces Figure 9: DOAM on Enron, large community.
func BenchmarkFig9(b *testing.B) { benchFigureDOAM(b, experiment.Fig9(benchScale)) }

// benchTable is the shared body of the Table I block benchmarks.
func benchTable(b *testing.B, cfg experiment.Config) {
	inst := getInstance(b, fastFigure(cfg))
	b.ResetTimer()
	var tr *experiment.TableResult
	for i := 0; i < b.N; i++ {
		var err error
		tr, err = experiment.RunTableContext(context.Background(), inst)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tr != nil && len(tr.Rows) > 0 {
		row := tr.Rows[len(tr.Rows)-1]
		b.ReportMetric(row.SCBG, "scbg_protectors")
		b.ReportMetric(row.Proximity, "proximity_protectors")
		b.ReportMetric(row.MaxDegree, "maxdegree_protectors")
	}
}

// BenchmarkTable1Hep308 reproduces the first Table I block (Hep, |C|=308).
func BenchmarkTable1Hep308(b *testing.B) { benchTable(b, experiment.Table1(benchScale)[0]) }

// BenchmarkTable1Email80 reproduces the second block (Enron, |C|=80).
func BenchmarkTable1Email80(b *testing.B) { benchTable(b, experiment.Table1(benchScale)[1]) }

// BenchmarkTable1Email2631 reproduces the third block (Enron, |C|=2631).
func BenchmarkTable1Email2631(b *testing.B) { benchTable(b, experiment.Table1(benchScale)[2]) }

// benchProblem builds a moderately-sized LCRB instance for the ablations.
func benchProblem(b *testing.B) *core.Problem {
	b.Helper()
	net, err := lcrb.GenerateHep(0.05, 77)
	if err != nil {
		b.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(50)
	members := part.Members(comm)
	prob, err := core.NewProblem(net.Graph, part.Assign(), comm, members[:2])
	if err != nil {
		b.Fatal(err)
	}
	if prob.NumEnds() == 0 {
		b.Skip("no bridge ends for this draw")
	}
	return prob
}

// BenchmarkAblationGreedyLazy ablates the CELF lazy evaluation against the
// verbatim algorithm-1 loop: identical output, very different numbers of σ̂
// evaluations.
func BenchmarkAblationGreedyLazy(b *testing.B) {
	prob := benchProblem(b)
	for _, mode := range []struct {
		name  string
		plain bool
	}{{"celf", false}, {"plain", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var evals int
			for i := 0; i < b.N; i++ {
				res, err := core.Greedy(prob, core.GreedyOptions{
					Alpha: 0.8, Samples: 8, Seed: 3, Plain: mode.plain,
				})
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Evaluations
			}
			b.ReportMetric(float64(evals), "sigma_evals")
		})
	}
}

// BenchmarkAblationMCSamples ablates the Monte-Carlo sample count behind σ̂.
func BenchmarkAblationMCSamples(b *testing.B) {
	prob := benchProblem(b)
	for _, samples := range []int{5, 15, 40} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			var protectors int
			for i := 0; i < b.N; i++ {
				res, err := core.Greedy(prob, core.GreedyOptions{
					Alpha: 0.8, Samples: samples, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				protectors = len(res.Protectors)
			}
			b.ReportMetric(float64(protectors), "protectors")
		})
	}
}

// BenchmarkAblationCRN ablates common random numbers: σ̂ evaluated with the
// fixed-realization engine versus fresh randomness per evaluation, showing
// why CRN is required for stable greedy selection.
func BenchmarkAblationCRN(b *testing.B) {
	prob := benchProblem(b)
	b.Run("common-random-numbers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := diffusion.RunOPOAORealization(
				prob.Graph, prob.Rumors, nil, 42, diffusion.Options{MaxHops: 31},
			); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-randomness", func(b *testing.B) {
		src := rng.New(42)
		for i := 0; i < b.N; i++ {
			if _, err := (diffusion.OPOAO{}).RunContext(context.Background(),
				prob.Graph, prob.Rumors, nil, src, diffusion.Options{MaxHops: 31},
			); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulators measures the raw diffusion engines on the bench
// network.
func BenchmarkSimulators(b *testing.B) {
	net, err := lcrb.GenerateEnron(0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	rumors := []int32{0, 1, 2}
	protectors := []int32{3, 4}
	models := []lcrb.Model{lcrb.DOAM{}, lcrb.OPOAO{}}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			src := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := m.RunContext(context.Background(), net.Graph, rumors, protectors, src, diffusion.Options{MaxHops: 31}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSCBGSolver measures the full SCBG pipeline (BBSTs + inversion +
// greedy set cover).
func BenchmarkSCBGSolver(b *testing.B) {
	prob := benchProblem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SCBG(prob, core.SCBGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloWorkers measures the parallel Monte-Carlo driver at
// different worker counts (single-core machines will show no speedup, but
// the determinism contract is exercised either way).
func BenchmarkMonteCarloWorkers(b *testing.B) {
	net, err := lcrb.GenerateEnron(0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mc := diffusion.MonteCarlo{Model: diffusion.OPOAO{}, Samples: 16, Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := mc.RunContext(context.Background(), net.Graph, []int32{0, 1}, []int32{2}, diffusion.Options{MaxHops: 31}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLouvain measures the community-detection front end on the
// benchmark network and on the paper's Enron scale (offline-enron's
// instance: 36,692 nodes).
func BenchmarkLouvain(b *testing.B) {
	for _, bc := range []struct {
		name string
		net  func() (*gen.Network, error)
		seed uint64
	}{
		{"hep-0.1", func() (*gen.Network, error) { return lcrb.GenerateHep(0.1, 7) }, 1},
		{"enron-1", func() (*gen.Network, error) { return gen.Enron(1, 0x0601) }, 0x0602},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net, err := bc.net()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var count int32
			for i := 0; i < b.N; i++ {
				count = community.Louvain(net.Graph, community.LouvainOptions{Seed: bc.seed}).Count()
			}
			b.ReportMetric(float64(count), "communities")
		})
	}
}

// BenchmarkGenEnron measures generating the paper-scale Enron network,
// Builder.Build's edge sort included.
func BenchmarkGenEnron(b *testing.B) {
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		net, err := gen.Enron(1, 0x0601)
		if err != nil {
			b.Fatal(err)
		}
		edges = net.Graph.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
}
