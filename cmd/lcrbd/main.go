// Command lcrbd serves rumor-blocking solves over HTTP with a
// deadline-aware fallback ladder. The default algorithm, auto (the same
// ladder as ris), answers from a warm RR-set sketch when the store matches,
// and otherwise serves an SCBG cover or, when SCBG cannot answer, a
// Proximity/MaxDegree ranking, honestly tagged "degraded" with the reason.
// An explicit greedy request runs the paper's greedy on its own RR sets and
// degrades the same way when its deadline runs out. The daemon never
// answers a bare 503: overload sheds with a typed 429, a broken instance
// builder opens a circuit with a typed 503, and SIGTERM drains in-flight
// solves before exiting 0.
//
// Under concurrent load the daemon stays fair and cheap: identical
// concurrent solves coalesce into one execution (single flight), admission
// queue slots divide across tenants (X-Tenant header or the request's
// "tenant" field; weights via -tenants) by deficit round robin so a hot
// tenant sheds itself with a typed 429 instead of starving the others, and
// POST /v1/solve/stream flushes each committed greedy round as a
// Server-Sent Event so clients hold a valid partial answer before the
// solve finishes.
//
// Usage:
//
//	lcrbd -addr 127.0.0.1:8080 -scale 0.05 -deadline 10s -tenants gold:3,bronze:1
//	curl -XPOST localhost:8080/v1/solve -d '{"alpha":0.9,"algorithm":"auto"}'
//
// With -dynamic the default instance's network becomes mutable: POST
// /v1/graph/delta applies a validated batch of edge/node mutations under
// optimistic concurrency (baseVersion mismatch answers a typed 409), solves
// keep serving the previous immutable snapshot — tagged with an honest
// staleness block — while a background loop incrementally repairs the warm
// RR-set sketches (bit-for-bit identical to a full rebuild) and swaps the
// served snapshot.
//
// Endpoints: POST /v1/solve, POST /v1/solve/stream, POST /v1/graph/delta,
// GET /healthz, GET /readyz, GET /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lcrb/internal/resilience"
)

func main() {
	interrupt := resilience.Interrupt{
		Signals: []os.Signal{os.Interrupt, syscall.SIGTERM},
		OnFirst: func() {
			fmt.Fprintln(os.Stderr, "lcrbd: interrupt received, draining — press again to force quit")
		},
	}
	ctx, stop := interrupt.Notify()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lcrbd:", err)
		os.Exit(1)
	}
}

// run is the testable body of the daemon: it serves until ctx is canceled
// (first interrupt) and then drains. A clean drain — every in-flight solve
// answered within -drain — returns nil.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lcrbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		scale       = fs.Float64("scale", 0.05, "default network scale for requests that set none")
		seed        = fs.Uint64("seed", 1, "default seed for requests that set none")
		commSize    = fs.Int("community-size", 80, "default target rumor community size")
		workers     = fs.Int("workers", 0, "σ̂ evaluation goroutines per solve (0/1 = serial, -1 = all cores)")
		deadline    = fs.Duration("deadline", 10*time.Second, "default per-request solve deadline")
		margin      = fs.Duration("deadline-margin", 200*time.Millisecond, "headroom the greedy and SCBG rungs reserve before the deadline for fallbacks")
		maxInflight = fs.Int64("max-inflight", 4, "concurrent solves admitted")
		maxWaiting  = fs.Int("max-waiting", 8, "solves queued behind the in-flight ones before shedding")
		drain       = fs.Duration("drain", 15*time.Second, "drain window for in-flight solves on shutdown")
		chaosSpec   = fs.String("chaos", "", "fault injection: stage:failon[/every][:panic],... (stages: load, solve)")
		portFile    = fs.String("port-file", "", "write the bound port here once listening (for scripts)")
		sketchN     = fs.Int("sketch-samples", 128, "RR-set sketch realizations for the fast rung (0 disables it)")
		sketchDir   = fs.String("sketch-dir", "", "directory persisting built sketches across restarts")
		tenantSpec  = fs.String("tenants", "", "per-tenant admission weights as name:weight,... (unlisted tenants weigh 1)")
		dynamic     = fs.Bool("dynamic", false, "mutable default-instance graph behind POST /v1/graph/delta: versioned snapshots, incremental sketch repair")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxInflight < 1 {
		return fmt.Errorf("-max-inflight %d must be positive", *maxInflight)
	}
	chaos, err := parseChaos(*chaosSpec)
	if err != nil {
		return err
	}
	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		return err
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	s := newServer(serverConfig{
		scale:          *scale,
		seed:           *seed,
		communitySize:  *commSize,
		workers:        *workers,
		defaultTimeout: *deadline,
		deadlineMargin: *margin,
		maxInflight:    *maxInflight,
		maxWaiting:     *maxWaiting,
		sketchSamples:  *sketchN,
		sketchDir:      *sketchDir,
		tenants:        tenants,
		dynamic:        *dynamic,
	}, chaos, logf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write port file: %w", err)
		}
	}
	fmt.Fprintf(stdout, "lcrbd: serving on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain: stop admitting (readyz flips, new solves answer a typed
	// 503), give in-flight solves the drain window, and before the window
	// closes cancel them (hardStop) so they degrade and still write a
	// response instead of holding Shutdown open.
	s.draining.Store(true)
	logf("lcrbd: draining for up to %v", *drain)
	soft := *drain - *drain/4
	timer := time.AfterFunc(soft, s.hardStop)
	defer timer.Stop()
	//lint:ignore ctxflow ctx is already canceled once the drain starts; the shutdown window must outlive it or Shutdown would return immediately
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		srv.Close()
		<-serveErr
		s.stop()
		return fmt.Errorf("drain: %w", err)
	}
	// Shutdown has returned, so Serve has too: join the serve goroutine and
	// surface any real listener error that the drain path used to drop.
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.stop()
		return fmt.Errorf("serve: %w", err)
	}
	s.stop()
	logf("lcrbd: drained cleanly")
	return nil
}

// parseTenants parses the -tenants spec: comma-separated name:weight pairs
// with positive integer weights. An empty spec means no configured tenants
// (every tenant runs at weight 1 on first use).
func parseTenants(spec string) (map[string]int64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, weightStr, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants %q: want name:weight", part)
		}
		weight, err := strconv.ParseInt(weightStr, 10, 64)
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("-tenants %q: weight must be a positive integer", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenants %q: duplicate tenant %q", spec, name)
		}
		out[name] = weight
	}
	return out, nil
}
