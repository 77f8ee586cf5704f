package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/experiment"
)

// dynTier is the daemon's dynamic-graph tier (-dynamic): a mutable master
// of the default instance's network behind POST /v1/graph/delta, plus the
// asynchronous repair loop that keeps the warm RR-set sketches bound to it.
//
// The serving contract is snapshot isolation with honest staleness: a delta
// advances the master immediately, but solves keep serving the previous
// snapshot — and say so, via the staleness block in every response — until
// the repair loop has patched the warm sketches onto the new version and
// swapped the served snapshot. Repair is sketch.Repair, which re-draws only
// the realizations whose recorded footprints intersect the batches' dirty
// nodes and is bit-for-bit identical to a full rebuild at the new version,
// so the swap never changes what a cold rebuild would have answered.
type dynTier struct {
	s *server

	mu sync.Mutex
	// master and inst materialize lazily on the first delta or
	// default-instance solve; initialization failures are returned, not
	// memoized, so a transient generator fault does not poison the tier.
	master *dyngraph.Master
	inst   *experiment.Instance
	// served is the snapshot solves answer from: at or behind the master.
	served *dyngraph.Snapshot
	// repairing marks an active repair loop; at most one runs at a time
	// and it drains every version the master is ahead by before exiting.
	repairing bool
	wg        sync.WaitGroup

	deltas               atomic.Int64
	conflicts            atomic.Int64
	invalid              atomic.Int64
	repairs              atomic.Int64
	repairErrors         atomic.Int64
	repairedRealizations atomic.Int64
	keptRealizations     atomic.Int64
	fullRebuilds         atomic.Int64
	staleServes          atomic.Int64
	repairLat            *latencyWindow
}

// newDynTier wires the tier, or returns nil when -dynamic is unset.
func newDynTier(s *server, enabled bool) *dynTier {
	if !enabled {
		return nil
	}
	return &dynTier{s: s, repairLat: newLatencyWindow(512)}
}

// enabled reports whether the dynamic tier serves at all.
func (d *dynTier) enabled() bool { return d != nil }

// wait blocks until the repair loop exits (shutdown; hardStop first).
func (d *dynTier) wait() {
	if d == nil {
		return
	}
	d.wg.Wait()
}

// stalenessInfo is the honesty block of dynamic-mode responses: which
// snapshot version answered, how many applied batches it trails the master
// by, and whether the repair loop is closing the gap right now.
type stalenessInfo struct {
	Version       uint64 `json:"version"`
	BehindBatches uint64 `json:"behindBatches"`
	Repairing     bool   `json:"repairing"`
}

// ensureInit materializes the master from the default instance on first
// use, behind the server's circuit breaker (the instance build is the
// expensive, possibly-broken part). Failures are returned but not cached:
// the instance cache already evicts failed builds, and the breaker keeps a
// persistent failure from turning into a build storm.
func (d *dynTier) ensureInit() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.master != nil {
		return nil
	}
	req, err := d.s.defaultRequest()
	if err != nil {
		return err
	}
	var inst *experiment.Instance
	err = d.s.breaker.DoContext(d.s.hardDrain, func(context.Context) error {
		var ierr error
		inst, ierr = d.s.instance(req)
		return ierr
	})
	if err != nil {
		return fmt.Errorf("build dynamic master: %w", err)
	}
	m, err := dyngraph.NewMaster(inst.Net.Graph)
	if err != nil {
		return fmt.Errorf("build dynamic master: %w", err)
	}
	d.master, d.inst = m, inst
	d.served = m.Snapshot()
	return nil
}

// defaultRequest resolves the daemon's default solve parameters — the
// instance the dynamic master holds.
func (s *server) defaultRequest() (*resolvedRequest, error) {
	return decodeSolveRequest(strings.NewReader("{}"), s.cfg)
}

// dynEligible reports whether a request resolves to the dynamic master's
// instance — the instance-cache key fields only: the rumor fraction, hops
// and sizing shape the problem and sketch drawn *on* the served snapshot,
// not which graph is served.
func (s *server) dynEligible(req *resolvedRequest) bool {
	if !s.dyn.enabled() {
		return false
	}
	d, err := s.defaultRequest()
	if err != nil {
		return false
	}
	return req.Dataset == d.Dataset && req.Scale == d.Scale &&
		req.Seed == d.Seed && req.CommunitySize == d.CommunitySize
}

// problemFor builds a request's problem on the served snapshot and reports
// the staleness of the answer: behindBatches counts the applied batches the
// snapshot trails the master by. Serving while behind is counted.
func (d *dynTier) problemFor(req *resolvedRequest) (*core.Problem, *stalenessInfo, error) {
	if err := d.ensureInit(); err != nil {
		return nil, nil, err
	}
	d.mu.Lock()
	snap := d.served
	repairing := d.repairing
	d.mu.Unlock()
	st := &stalenessInfo{
		Version:       snap.Version,
		BehindBatches: d.master.Version() - snap.Version,
		Repairing:     repairing,
	}
	if st.BehindBatches > 0 {
		d.staleServes.Add(1)
	}
	prob, err := d.inst.NewProblemOn(snap.Graph, req.RumorFraction, d.s.requestRNG(req))
	if err != nil {
		return nil, nil, fmt.Errorf("build problem: %w", err)
	}
	return prob, st, nil
}

// servedVersion returns the served snapshot version, 0 before first init —
// the coalescing-key component that keeps pre- and post-swap answers from
// sharing one execution.
func (d *dynTier) servedVersion() uint64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.served == nil {
		return 0
	}
	return d.served.Version
}

// handleDelta is POST /v1/graph/delta: validate, apply, answer the new
// version, and kick the asynchronous repair. The apply itself is cheap and
// synchronous — the response's version is durable in the master — while
// sketch repair and the served-snapshot swap happen behind the returned
// staleness block.
func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.dyn.enabled() {
		s.writeError(w, http.StatusNotFound, codeDynamicDisabled,
			"dynamic graphs are disabled: start lcrbd with -dynamic")
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, codeDraining, "draining: not accepting graph deltas")
		return
	}
	var delta dyngraph.Delta
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&delta); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("decode delta: %v", err))
		return
	}
	if err := s.dyn.ensureInit(); err != nil {
		status, code := s.classifyError(r, err)
		s.writeError(w, status, code, err.Error())
		return
	}
	snap, sum, err := s.dyn.master.ApplyDelta(delta)
	switch {
	case errors.Is(err, dyngraph.ErrVersionConflict):
		s.dyn.conflicts.Add(1)
		s.writeError(w, http.StatusConflict, codeVersionConflict, err.Error())
		return
	case errors.Is(err, dyngraph.ErrInvalidDelta):
		s.dyn.invalid.Add(1)
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	s.dyn.deltas.Add(1)
	s.dyn.kickRepair()
	s.dyn.mu.Lock()
	served := s.dyn.served
	repairing := s.dyn.repairing
	s.dyn.mu.Unlock()
	s.writeJSON(w, &deltaResponse{
		Version:        snap.Version,
		DirtyNodes:     len(sum.DirtyNodes),
		AddedNodes:     sum.AddedNodes,
		AddedEdges:     sum.AddedEdges,
		RemovedEdges:   sum.RemovedEdges,
		RedundantAdds:  sum.RedundantAdds,
		MissingRemoves: sum.MissingRemoves,
		Staleness: stalenessInfo{
			Version:       served.Version,
			BehindBatches: snap.Version - served.Version,
			Repairing:     repairing,
		},
	})
}

// deltaResponse is the body of a successful POST /v1/graph/delta: the
// version the batch produced, its realized operation counts, and the
// staleness of the serving path at response time.
type deltaResponse struct {
	Version        uint64        `json:"version"`
	DirtyNodes     int           `json:"dirtyNodes"`
	AddedNodes     int32         `json:"addedNodes,omitempty"`
	AddedEdges     int           `json:"addedEdges,omitempty"`
	RemovedEdges   int           `json:"removedEdges,omitempty"`
	RedundantAdds  int           `json:"redundantAdds,omitempty"`
	MissingRemoves int           `json:"missingRemoves,omitempty"`
	Staleness      stalenessInfo `json:"staleness"`
}

// kickRepair starts the repair loop unless one is already draining the
// version gap. The loop runs under the daemon's hard-drain context: a
// draining process abandons repair (solves keep serving the old snapshot,
// honestly tagged) instead of holding Shutdown open.
func (d *dynTier) kickRepair() {
	d.mu.Lock()
	if d.repairing {
		d.mu.Unlock()
		return
	}
	d.repairing = true
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.repairLoop()
	}()
}

// repairLoop drains the gap between the served snapshot and the master:
// each pass repairs every warm sketch from the served version onto the
// current master snapshot (one Repair per sketch covers the whole batch
// union via DirtySince), then swaps the served snapshot. The loop exits
// only when served == master, checked under the lock so a delta racing the
// exit re-enters via kickRepair.
func (d *dynTier) repairLoop() {
	for {
		if d.s.hardDrain.Err() != nil {
			d.mu.Lock()
			d.repairing = false
			d.mu.Unlock()
			return
		}
		d.mu.Lock()
		cur := d.served
		d.mu.Unlock()
		target := d.master.Snapshot()
		if target.Version == cur.Version {
			d.mu.Lock()
			if d.master.Version() == d.served.Version {
				d.repairing = false
				d.mu.Unlock()
				return
			}
			d.mu.Unlock()
			continue
		}
		start := time.Now()
		dirty, err := d.master.DirtySince(cur.Version)
		if err != nil {
			// Unreachable while served trails the master; fail safe by
			// treating everything as dirty.
			d.s.logf("lcrbd: dynamic: dirty since %d: %v", cur.Version, err)
			dirty = nil
		}
		if d.s.sketches.enabled() {
			rep, kept, rebuilds, errs := d.s.sketches.repairAll(d.s.hardDrain, cur.Version, target, dirty)
			d.repairedRealizations.Add(int64(rep))
			d.keptRealizations.Add(int64(kept))
			d.fullRebuilds.Add(int64(rebuilds))
			d.repairErrors.Add(int64(errs))
			if errs > 0 && d.s.hardDrain.Err() != nil {
				continue // drained mid-repair; the top of the loop exits
			}
		}
		d.mu.Lock()
		d.served = target
		d.mu.Unlock()
		d.repairs.Add(1)
		d.repairLat.record(time.Since(start))
		d.s.logf("lcrbd: dynamic: serving version %d (%d dirty nodes) after %v",
			target.Version, len(dirty), time.Since(start).Round(time.Millisecond))
	}
}

// stats reports the dynamic tier's counters for /v1/stats.
func (d *dynTier) stats() map[string]any {
	d.mu.Lock()
	var masterVersion, servedVersion uint64
	if d.master != nil {
		servedVersion = d.served.Version
	}
	repairing := d.repairing
	master := d.master
	d.mu.Unlock()
	if master != nil {
		masterVersion = master.Version()
	}
	return map[string]any{
		"masterVersion":        masterVersion,
		"servedVersion":        servedVersion,
		"behindBatches":        masterVersion - servedVersion,
		"repairing":            repairing,
		"deltas":               d.deltas.Load(),
		"conflicts":            d.conflicts.Load(),
		"invalid":              d.invalid.Load(),
		"repairs":              d.repairs.Load(),
		"repairErrors":         d.repairErrors.Load(),
		"repairedRealizations": d.repairedRealizations.Load(),
		"keptRealizations":     d.keptRealizations.Load(),
		"fullRebuilds":         d.fullRebuilds.Load(),
		"staleServes":          d.staleServes.Load(),
		"repairLatency":        d.repairLat.summary(),
	}
}
