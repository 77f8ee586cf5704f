package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/rng"
)

// TransferRow reports one diffusion model's outcome for a fixed solution.
type TransferRow struct {
	// Model names the diffusion model the solution was evaluated under.
	Model string
	// OpenInfected is the mean infected count with no protection.
	OpenInfected float64
	// BlockedInfected is the mean infected count with the solution's
	// protectors.
	BlockedInfected float64
	// EndsProtectedFraction is the mean fraction of bridge ends kept
	// uninfected by the solution.
	EndsProtectedFraction float64
}

// ModelTransfer measures how the SCBG solution, computed for DOAM, holds up
// under OPOAO. That gap is why the paper poses LCRB-P separately instead of
// reusing the DOAM cover.
type ModelTransfer struct {
	Config  Config
	NumEnds int
	Seeds   int
	Rows    []TransferRow
}

// RunModelTransferContext computes the SCBG (DOAM-optimal) solution once and
// evaluates it under DOAM and OPOAO.
// Cancellation is checked per model and forwarded to SCBG and the
// evaluations.
func RunModelTransferContext(ctx context.Context, inst *Instance) (*ModelTransfer, error) {
	cfg := inst.Config
	src := rng.New(cfg.Seed + 18)
	prob, err := inst.NewProblem(cfg.RumorFractions[0], src)
	if err != nil {
		return nil, fmt.Errorf("experiment: transfer: %w", err)
	}
	if prob.NumEnds() == 0 {
		return nil, fmt.Errorf("experiment: transfer: no bridge ends")
	}
	sres, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
	if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) &&
		(sres == nil || sres.UncoverableEnds == 0) {
		return nil, fmt.Errorf("experiment: transfer: scbg: %w", err)
	}
	var protectors []int32
	if sres != nil {
		protectors = sres.Protectors
	}
	out := &ModelTransfer{Config: cfg, NumEnds: prob.NumEnds(), Seeds: len(protectors)}

	for _, m := range []diffusion.Model{diffusion.DOAM{}, diffusion.OPOAO{}} {
		open, err := core.EvaluateContext(ctx, prob, nil, core.EvaluateOptions{
			Model: m, Samples: cfg.MCSamples, Seed: cfg.Seed + 19, MaxHops: cfg.Hops,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: transfer: %s open: %w", m.Name(), err)
		}
		blocked, err := core.EvaluateContext(ctx, prob, protectors, core.EvaluateOptions{
			Model: m, Samples: cfg.MCSamples, Seed: cfg.Seed + 19, MaxHops: cfg.Hops,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: transfer: %s blocked: %w", m.Name(), err)
		}
		out.Rows = append(out.Rows, TransferRow{
			Model:                 m.Name(),
			OpenInfected:          open.MeanInfected,
			BlockedInfected:       blocked.MeanInfected,
			EndsProtectedFraction: blocked.EndsProtectedFraction,
		})
	}
	return out, nil
}

// WriteModelTransfer renders the transfer table.
func WriteModelTransfer(w io.Writer, tr *ModelTransfer) error {
	if _, err := fmt.Fprintf(w, "# %s — model transfer of the SCBG (DOAM) solution (|B| = %d, %d seeds)\n",
		tr.Config.Name, tr.NumEnds, tr.Seeds); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "model\tinfected (open)\tinfected (blocked)\tends protected\t")
	for _, row := range tr.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.0f%%\t\n",
			row.Model, row.OpenInfected, row.BlockedInfected, row.EndsProtectedFraction*100)
	}
	return tw.Flush()
}
