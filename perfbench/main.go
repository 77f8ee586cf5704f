// Command perfbench is the repository's benchmark. It runs one named
// workload — the paper's offline pipeline at Enron scale, or one of three
// lcrbd serving workloads — for a fixed time, checks every answer against
// the library's oracles, and prints a report whose last line is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end metrics; with -trace 1
// they are the per-layer metrics of a traced run. Run it through run.sh
// from the repository root, which builds it and the daemon first:
//
//	bash perfbench/run.sh --workload serve-ris --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Lcrbd    string
	Workdir  string
	Root     string
	// Procs caps the load generator's connections and worker goroutines,
	// and the in-process solves' worker goroutines.
	Procs int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// instanceInfo sizes one generated instance for the env block.
type instanceInfo struct {
	Name  string `json:"name"`
	Nodes int32  `json:"nodes"`
	Edges int64  `json:"edges"`
}

// env records where a result came from.
type env struct {
	Commit     string         `json:"commit"`
	TreeSHA256 string         `json:"treeSha256"`
	GoVersion  string         `json:"goVersion"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Seed       uint64         `json:"seed"`
	Workload   string         `json:"workload"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Instances  []instanceInfo `json:"instances"`
}

// result is everything one run measured.
type result struct {
	Env env `json:"env"`
	// E2E holds every end-to-end metric the workload measured, gated and
	// report-only; Layers the traced run's per-layer metrics.
	E2E    map[string]float64 `json:"e2e"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Attempted and Failed count operations, Mismatches failed correctness
	// checks; Failures lists the first of either.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatches int      `json:"mismatches"`
	Failures   []string `json:"failures,omitempty"`
	// Notes are human-readable report lines (per-step latencies, the
	// percentile tail_ms was read at, ...).
	Notes []string `json:"notes"`
	Spans []span   `json:"spans,omitempty"`
}

func newResult(cfg *config) *result {
	return &result{
		Env: env{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Seed: cfg.Seed, Workload: cfg.Workload, Seconds: cfg.Seconds, Trace: cfg.Trace,
		},
		E2E:    make(map[string]float64),
		Layers: make(map[string]float64),
	}
}

// failOp records an operation that failed: an error, a refusal or a
// timeout. The run stays correct; failed operations are counted.
func (r *result) failOp(format string, args ...any) {
	r.Failed++
	r.record(format, args...)
}

// mismatch records a failed correctness check: an answer that differs
// from its oracle, or a broken invariant. The run is then incorrect.
func (r *result) mismatch(format string, args ...any) {
	r.Mismatches++
	r.record(format, args...)
}

// record keeps the first failures for the report.
func (r *result) record(format string, args ...any) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// note adds a report line.
func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// addInstance records a generated instance's size.
func (r *result) addInstance(name string, nodes int32, edges int64) {
	r.Env.Instances = append(r.Env.Instances, instanceInfo{Name: name, Nodes: nodes, Edges: edges})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg *config, res *result) error{
	"offline-enron": runOffline,
	"serve-ris":     runServeRIS,
	"serve-delta":   runServeDelta,
	"serve-greedy":  runServeGreedy,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := &config{Procs: runtime.NumCPU()}
	trace := fl.Int("trace", 0, "1 runs the traced per-layer run")
	fl.StringVar(&cfg.Workload, "workload", "", "workload: offline-enron, serve-ris, serve-delta or serve-greedy")
	fl.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: every generated input derives from it")
	fl.IntVar(&cfg.Seconds, "seconds", 10, "how long the measured load runs")
	fl.StringVar(&cfg.Lcrbd, "lcrbd", "", "lcrbd binary for the serve workloads")
	fl.StringVar(&cfg.Workdir, "workdir", ".bench_build/run", "scratch directory for daemon logs and result files")
	fl.StringVar(&cfg.Root, "root", ".", "repository root (for the env block's source hash)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	runner, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.NumCPU() < cfg.Procs {
		cfg.Procs = runtime.NumCPU()
	}
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res := newResult(cfg)
	res.Env.Commit, res.Env.TreeSHA256 = sourceIdentity(cfg.Root)
	if err := runner(ctx, cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operations\n", cfg.Workload)
		return 1
	}
	out, err := finish(cfg, res, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the report, writes the result file and prints the summary
// line. A result is correct when no correctness check failed.
func finish(cfg *config, res *result, stdout io.Writer) (*summary, error) {
	out := &summary{Correct: res.Mismatches == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric)}
	if cfg.Trace {
		for _, l := range layers {
			out.Metrics[l.Name] = metric{Value: res.Layers[l.Name], Unit: l.Unit}
		}
	} else {
		for _, g := range gated {
			v, ok := res.E2E[g.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", cfg.Workload, g.Name)
			}
			out.Metrics[g.Name] = metric{Value: v, Unit: g.Unit}
		}
	}

	envJSON, _ := json.Marshal(res.Env)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	fmt.Fprintln(stdout, "end-to-end:")
	all := append([]metricDef(nil), gated...)
	for _, l := range reportOnly {
		all = append(all, l.metricDef)
	}
	for _, g := range all {
		if v, ok := res.E2E[g.Name]; ok {
			fmt.Fprintf(stdout, "  %-20s %14.4f %s\n", g.Name, v, g.Unit)
		} else {
			fmt.Fprintf(stdout, "  %-20s %14s %s (not measured on %s)\n", g.Name, "-", g.Unit, cfg.Workload)
		}
	}
	if cfg.Trace {
		fmt.Fprintln(stdout, "per-layer (traced run; moves -> end-to-end metric):")
		for _, l := range layers {
			fmt.Fprintf(stdout, "  %-36s %14.4f %-8s -> %s [%s]\n", l.Name, res.Layers[l.Name], l.Unit, l.Moves, l.Workloads)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}

	dir := filepath.Join(cfg.Workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, map[bool]int{false: 0, true: 1}[cfg.Trace])
	if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "result file: %s\n", filepath.Join(dir, name))

	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return out, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// sourceIdentity returns the git commit when root is a git checkout
// ("none" otherwise) and a SHA-256 over the module's Go sources and
// go.mod files, which identifies the code in checkouts without history.
func sourceIdentity(root string) (commit, tree string) {
	commit = "none"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return commit, "unavailable: " + err.Error()
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}

// peakSelfRSSMB is the benchmark process's own peak resident set size.
func peakSelfRSSMB() (float64, error) { return peakRSSMB("/proc/self/status") }

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
