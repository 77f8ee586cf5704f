package experiment

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/rng"
)

// AlphaRow is one step of the LCRB-P protection-level sweep.
type AlphaRow struct {
	// Alpha is the required protection level.
	Alpha float64
	// Protectors is the greedy seed-set size.
	Protectors int
	// ProtectedEnds is the achieved σ̂(S_P).
	ProtectedEnds float64
	// Target is ceil(alpha * |B|).
	Target int
	// Achieved reports whether σ̂ reached the target.
	Achieved bool
	// Evaluations is the greedy's σ̂ evaluation count.
	Evaluations int
	// MeanInfected is the realized OPOAO infection count with the seeds.
	MeanInfected float64
}

// AlphaSweep is an extension experiment beyond the paper's figures: how
// the LCRB-P seed-set size and the realized damage scale with the required
// protection level α.
type AlphaSweep struct {
	Config   Config
	NumEnds  int
	NumRumor int
	Rows     []AlphaRow
}

// RunAlphaSweepContext solves LCRB-P on the instance for each protection
// level and measures the realized infections of each solution. Cancellation
// is checked per protection level and forwarded to the greedy and the
// Monte-Carlo evaluations.
func RunAlphaSweepContext(ctx context.Context, inst *Instance, alphas []float64) (*AlphaSweep, error) {
	cfg := inst.Config
	src := rng.New(cfg.Seed + 9)
	prob, err := inst.NewProblem(cfg.RumorFractions[0], src)
	if err != nil {
		return nil, fmt.Errorf("experiment: alpha sweep: %w", err)
	}
	rumors := prob.Rumors
	out := &AlphaSweep{Config: cfg, NumEnds: prob.NumEnds(), NumRumor: len(rumors)}
	if prob.NumEnds() == 0 {
		return nil, fmt.Errorf("experiment: alpha sweep: no bridge ends")
	}
	for _, alpha := range alphas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: alpha sweep: %w", err)
		}
		res, err := core.GreedyContext(ctx, prob, core.GreedyOptions{
			Alpha:   alpha,
			Samples: cfg.GreedySamples,
			Seed:    cfg.Seed + 10,
			MaxHops: cfg.Hops,
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: alpha sweep: alpha %v: %w", alpha, err)
		}
		agg, err := diffusion.MonteCarlo{
			Model:   diffusion.OPOAO{},
			Samples: cfg.MCSamples,
			Seed:    cfg.Seed + 11,
			Workers: cfg.Workers,
		}.RunContext(ctx, inst.Net.Graph, rumors, res.Protectors, diffusion.Options{MaxHops: cfg.Hops})
		if err != nil {
			return nil, fmt.Errorf("experiment: alpha sweep: simulate: %w", err)
		}
		out.Rows = append(out.Rows, AlphaRow{
			Alpha:         alpha,
			Protectors:    len(res.Protectors),
			ProtectedEnds: res.ProtectedEnds,
			Target:        prob.RequiredEnds(alpha),
			Achieved:      res.Achieved,
			Evaluations:   res.Evaluations,
			MeanInfected:  agg.MeanInfected,
		})
	}
	return out, nil
}

// WriteAlphaSweep renders the sweep as an aligned table.
func WriteAlphaSweep(w io.Writer, s *AlphaSweep) error {
	if _, err := fmt.Fprintf(w, "# %s — LCRB-P protection-level sweep (|R| = %d, |B| = %d)\n",
		s.Config.Name, s.NumRumor, s.NumEnds); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "alpha\tseeds\tsigma\ttarget\tachieved\tevals\tmean infected\t")
	for _, row := range s.Rows {
		fmt.Fprintf(tw, "%.2f\t%d\t%.1f\t%d\t%v\t%d\t%.1f\t\n",
			row.Alpha, row.Protectors, row.ProtectedEnds, row.Target,
			row.Achieved, row.Evaluations, row.MeanInfected)
	}
	return tw.Flush()
}
