// Command lcrbbench regenerates the paper's evaluation: the OPOAO figures
// (4-6), the DOAM figures (7-9) and Table I, printing each as an aligned
// text table (or CSV) together with a qualitative shape report comparing
// the reproduction against the paper's claims.
//
// Usage:
//
//	lcrbbench -exp all -scale 0.1          # fast, scaled-down pass
//	lcrbbench -exp fig4 -scale 1 -csv      # full-size Figure 4 as CSV
//	lcrbbench -exp table1 -scale 0.25
//
// Long sweeps are interruptible and resumable: Ctrl-C (or -timeout) stops
// at the next safe point, and with -checkpoint the completed experiments
// are snapshotted after each job so a rerun with -resume replays their
// stored reports and continues from the first unfinished one.
//
//	lcrbbench -exp all -scale 1 -checkpoint sweep.json           # killable
//	lcrbbench -exp all -scale 1 -checkpoint sweep.json -resume   # continue
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lcrb/internal/checkpoint"
	"lcrb/internal/experiment"
	"lcrb/internal/resilience"
)

func main() {
	interrupt := resilience.Interrupt{
		OnFirst: func() {
			fmt.Fprintln(os.Stderr, "lcrbbench: interrupt received, draining — press again to force quit")
		},
	}
	ctx, stop := interrupt.Notify()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lcrbbench:", err)
		os.Exit(1)
	}
}

// testJobDone, when set, runs after each completed job. Tests use it to
// interrupt a sweep at a deterministic point without a real SIGINT.
var testJobDone func(name string)

// run is the testable body of the command.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lcrbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: fig4..fig9, table1, opoao, doam, alpha, transfer or all")
		scale    = fs.Float64("scale", 0.1, "network scale (1.0 = paper size)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		quiet    = fs.Bool("quiet", false, "suppress progress output on stderr")
		timeout  = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
		ckptPath = fs.String("checkpoint", "", "snapshot completed experiments to this file after each job")
		resume   = fs.Bool("resume", false, "replay completed experiments from -checkpoint and continue")
		workers  = fs.Int("workers", 0, "parallel evaluation goroutines (0/1 = serial, -1 = all cores); results are identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	jobs, err := selectJobs(*exp, *scale)
	if err != nil {
		return err
	}
	// Worker count never changes an experiment's numbers (σ̂ evaluation and
	// the Monte-Carlo sweeps are bit-identical for every count), so it is
	// applied after job selection and kept out of the fingerprint below: a
	// serial checkpoint resumes a parallel sweep and vice versa.
	for i := range jobs {
		jobs[i].cfg.Workers = *workers
	}

	// The fingerprint binds a checkpoint to the flags that shape the output,
	// so a stale file cannot silently seed a different sweep.
	var sweep *checkpoint.Sweep
	fingerprint := fmt.Sprintf("lcrbbench exp=%s scale=%g csv=%v", *exp, *scale, *csv)
	if *ckptPath != "" {
		if *resume {
			sweep, err = checkpoint.Load(*ckptPath, fingerprint)
			if err != nil {
				return err
			}
		} else {
			sweep = &checkpoint.Sweep{Fingerprint: fingerprint}
		}
	}

	completed := 0
	for _, job := range jobs {
		if sweep != nil {
			if unit, ok := sweep.Get(job.cfg.Name); ok {
				// Replaying the stored report keeps a resumed sweep's output
				// byte-identical to an uninterrupted run.
				if !*quiet {
					fmt.Fprintf(stderr, "%s already complete (checkpointed), replaying\n", job.cfg.Name)
				}
				if _, err := io.WriteString(stdout, unit.Output); err != nil {
					return err
				}
				completed++
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return interrupted(stderr, err, completed, len(jobs), *ckptPath)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "running %s (scale %.2f)...\n", job.cfg.Name, *scale)
		}
		start := time.Now()
		// Buffer the report so the checkpoint stores exactly what a reader
		// of stdout saw, separator newline included.
		var buf bytes.Buffer
		if err := job.run(ctx, &buf, *csv); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return interrupted(stderr, err, completed, len(jobs), *ckptPath)
			}
			return fmt.Errorf("%s: %w", job.cfg.Name, err)
		}
		fmt.Fprintln(&buf)
		if _, err := stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "%s done in %v\n", job.cfg.Name, time.Since(start).Round(time.Millisecond))
		}
		if sweep != nil {
			sweep.Mark(checkpoint.Unit{Name: job.cfg.Name, Output: buf.String()})
			if err := checkpoint.Save(*ckptPath, sweep); err != nil {
				return err
			}
		}
		completed++
		if testJobDone != nil {
			testJobDone(job.cfg.Name)
		}
		// Collect the finished job's heap before the next one starts.
		// Otherwise the pacer lets the next job allocate on top of this
		// one's garbage up to a goal sized by this job's live heap: at
		// scale 1, Fig. 6's goal carried table1-hep308 to 465 MiB.
		runtime.GC()
	}
	// A finished sweep leaves no checkpoint behind; the file only exists to
	// bridge interruptions.
	if sweep != nil {
		if err := checkpoint.Remove(*ckptPath); err != nil {
			return err
		}
	}
	return nil
}

// interrupted reports the partial-results state after a cancellation or
// timeout and returns the cause.
func interrupted(stderr io.Writer, cause error, completed, total int, ckptPath string) error {
	fmt.Fprintf(stderr, "interrupted: %d of %d experiments completed\n", completed, total)
	if ckptPath != "" {
		fmt.Fprintf(stderr, "checkpoint saved to %s; rerun with -resume to continue\n", ckptPath)
	} else {
		fmt.Fprintln(stderr, "no -checkpoint given; completed work is not resumable")
	}
	return cause
}

// job couples a config with its runner kind.
type job struct {
	cfg  experiment.Config
	kind string // "opoao", "doam", "table", "alpha" or "transfer"
}

// selectJobs expands the experiment selector into concrete jobs.
func selectJobs(exp string, scale float64) ([]job, error) {
	var jobs []job
	add := func(kind string, cfgs ...experiment.Config) {
		for _, c := range cfgs {
			jobs = append(jobs, job{cfg: c, kind: kind})
		}
	}
	switch exp {
	case "fig4":
		add("opoao", experiment.Fig4(scale))
	case "fig5":
		add("opoao", experiment.Fig5(scale))
	case "fig6":
		add("opoao", experiment.Fig6(scale))
	case "fig7":
		add("doam", experiment.Fig7(scale))
	case "fig8":
		add("doam", experiment.Fig8(scale))
	case "fig9":
		add("doam", experiment.Fig9(scale))
	case "table1":
		add("table", experiment.Table1(scale)...)
	case "opoao":
		add("opoao", experiment.Fig4(scale), experiment.Fig5(scale), experiment.Fig6(scale))
	case "doam":
		add("doam", experiment.Fig7(scale), experiment.Fig8(scale), experiment.Fig9(scale))
	case "alpha":
		cfg := experiment.Fig4(scale)
		cfg.Name = "alpha-sweep"
		cfg.Title = "LCRB-P protection-level sweep (extension)"
		add("alpha", cfg)
	case "transfer":
		cfg := experiment.Fig7(scale)
		cfg.Name = "model-transfer"
		cfg.Title = "SCBG solution under other diffusion models (extension)"
		add("transfer", cfg)
	case "all":
		add("opoao", experiment.Fig4(scale), experiment.Fig5(scale), experiment.Fig6(scale))
		add("table", experiment.Table1(scale)...)
		add("doam", experiment.Fig7(scale), experiment.Fig8(scale), experiment.Fig9(scale))
	default:
		return nil, fmt.Errorf("unknown experiment %q (want fig4..fig9, table1, opoao, doam, alpha, transfer or all)", exp)
	}
	return jobs, nil
}

// run executes the job and writes its report.
func (j job) run(ctx context.Context, w io.Writer, csv bool) error {
	inst, err := experiment.Setup(j.cfg)
	if err != nil {
		return err
	}
	switch j.kind {
	case "opoao":
		fr, err := experiment.RunFigureOPOAOContext(ctx, inst)
		if err != nil {
			return err
		}
		if err := writeFigure(w, fr, csv); err != nil {
			return err
		}
		return writeShape(w, experiment.CheckFigureOPOAO(fr, 0.10))
	case "doam":
		fr, err := experiment.RunFigureDOAMContext(ctx, inst)
		if err != nil {
			return err
		}
		if err := writeFigure(w, fr, csv); err != nil {
			return err
		}
		return writeShape(w, experiment.CheckFigureDOAM(fr, 0.10))
	case "alpha":
		sweep, err := experiment.RunAlphaSweepContext(ctx, inst, []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95})
		if err != nil {
			return err
		}
		return experiment.WriteAlphaSweep(w, sweep)
	case "transfer":
		tr, err := experiment.RunModelTransferContext(ctx, inst)
		if err != nil {
			return err
		}
		return experiment.WriteModelTransfer(w, tr)
	case "table":
		tr, err := experiment.RunTableContext(ctx, inst)
		if err != nil {
			return err
		}
		if csv {
			if err := experiment.WriteTableCSV(w, tr); err != nil {
				return err
			}
		} else if err := experiment.WriteTable(w, tr); err != nil {
			return err
		}
		// The paper's own Hep block has Proximity winning the smallest-|R| row.
		allowProximityWin := tr.Config.Dataset == experiment.Hep
		return writeShape(w, experiment.CheckTable(tr, allowProximityWin))
	default:
		return fmt.Errorf("unknown job kind %q", j.kind)
	}
}

func writeFigure(w io.Writer, fr *experiment.FigureResult, csv bool) error {
	if csv {
		return experiment.WriteFigureCSV(w, fr)
	}
	return experiment.WriteFigure(w, fr)
}

// writeShape prints the qualitative comparison against the paper.
func writeShape(w io.Writer, r *experiment.ShapeReport) error {
	if r.Ok() {
		_, err := fmt.Fprintf(w, "shape: OK (%d checks match the paper)\n", r.Checks)
		return err
	}
	if _, err := fmt.Fprintf(w, "shape: %d of %d checks deviate from the paper:\n", len(r.Issues), r.Checks); err != nil {
		return err
	}
	for _, issue := range r.Issues {
		if _, err := fmt.Fprintf(w, "  - %s\n", issue); err != nil {
			return err
		}
	}
	return nil
}
