package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one lcrbd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{}
	err    error // the process's exit status, valid once done is closed
	url    string
	client *http.Client
	dir    string
}

// startDaemon starts bin with args on a free loopback port and waits until
// it answers /readyz. Its log and port file live in a fresh directory
// under workdir.
func startDaemon(ctx context.Context, bin, workdir string, client *http.Client, args ...string) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "lcrbd-")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "lcrbd.log"))
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	portFile := filepath.Join(dir, "port")
	args = append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile, "-drain", "2s"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("daemon: start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), client: client, dir: dir}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.url = "http://127.0.0.1:" + strings.TrimSpace(string(b))
			if resp, err := client.Get(d.url + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon: exited during start-up (%v); log in %s", d.err, dir)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon: not ready after 60s; log in %s", dir)
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns, and
// waits until it has exited. It is safe to call more than once.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	// A clean drain leaves nothing worth keeping; otherwise the log stays.
	if d.err == nil {
		os.RemoveAll(d.dir)
	}
}

// peakRSSMB reads the daemon's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM from a /proc status file, in MiB.
func peakRSSMB(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line")
}

// solveAnswer is the part of a /v1/solve response the benchmark checks.
type solveAnswer struct {
	Algorithm      string  `json:"algorithm"`
	Protectors     []int32 `json:"protectors"`
	Degraded       bool    `json:"degraded"`
	DegradedReason string  `json:"degradedReason"`
	Staleness      *struct {
		Version       uint64 `json:"version"`
		BehindBatches uint64 `json:"behindBatches"`
	} `json:"staleness"`
}

// post sends a JSON body and decodes a 200 answer into out. Any other
// status is an error carrying the daemon's error envelope.
func (d *daemon) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// solve sends one solve request.
func (d *daemon) solve(ctx context.Context, req *solveReq) (*solveAnswer, error) {
	var ans solveAnswer
	if err := d.post(ctx, "/v1/solve", req, &ans); err != nil {
		return nil, err
	}
	return &ans, nil
}

// stats reads /v1/stats flattened to dotted numeric keys
// ("sketch.hits", "latency.p50Millis", ...).
func (d *daemon) stats(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read to EOF so the connection goes back to the pool.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := make(map[string]float64)
	flatten("", raw, out)
	return out, nil
}

// flatten copies the numeric leaves of v into out under dotted keys.
func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			name := k
			if prefix != "" {
				name = prefix + "." + k
			}
			flatten(name, x[k], out)
		}
	}
}
