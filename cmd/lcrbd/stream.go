package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lcrb/internal/core"
)

// streamRound is the payload of one "round" Server-Sent Event: a committed
// greedy selection round. Because greedy selections are prefixes of the
// uninterrupted run, Protectors is itself a valid protector set — a client
// under deadline pressure can act on the latest round it has seen.
type streamRound struct {
	Round      int     `json:"round"`
	Node       int32   `json:"node"`
	Gain       float64 `json:"gain"`
	Score      float64 `json:"score"`
	Protectors []int32 `json:"protectors"`
}

// handleSolveStream serves POST /v1/solve/stream: the same solve contract
// as /v1/solve, but each committed greedy round is flushed immediately as
// an SSE event, so the client holds a usable partial answer long before the
// solve finishes. The stream carries three event types:
//
//	event: round   — a streamRound, one per committed greedy round
//	event: result  — the final solveResponse; terminal
//	event: error   — an errorBody envelope payload; terminal
//
// Exactly one terminal event ends every stream, drains included: a drain
// that cancels the solve mid-stream still answers with a terminal event
// (a degraded result from the fallback ladder, or a typed error), never a
// silent hangup. Admission errors before the stream opens are plain JSON
// envelopes with the matching status, exactly like /v1/solve.
//
// Streams bypass single-flight coalescing: the round events are a
// per-connection side channel, so every stream runs its own solve.
func (s *server) handleSolveStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.streams.Add(1)
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, codeDraining, "draining: not accepting new solves")
		return
	}
	req, err := decodeSolveRequest(r.Body, s.cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, codeInternal,
			"streaming unsupported: response writer cannot flush")
		return
	}
	tenant := requestTenant(r, req)
	if !s.admit(w, r, tenant) {
		return
	}
	defer s.gate.ReleaseTenant(tenant, 1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sink := &eventSink{w: w, flusher: flusher, logf: s.logf}
	req.onRound = func(round core.GreedyRound) {
		sink.send("round", streamRound{
			Round:      round.Round,
			Node:       round.Node,
			Gain:       round.Gain,
			Score:      round.Score,
			Protectors: round.Protectors,
		})
	}

	ctx, cancel := context.WithTimeout(r.Context(), req.timeout)
	defer cancel()
	// A drain past its soft deadline cancels in-flight solves so they
	// degrade instead of holding the shutdown open.
	stopAfter := context.AfterFunc(s.hardDrain, cancel)
	defer stopAfter()

	start := time.Now()
	resp, err := s.solve(ctx, req)
	if err != nil {
		_, code := s.classifyError(r, err)
		s.countError(r, code, err)
		sink.terminal("error", errorBody{Code: code, Message: err.Error()})
		return
	}
	resp.ElapsedMillis = time.Since(start).Milliseconds()
	if resp.Degraded {
		s.degraded.Add(1)
	}
	s.latencies.record(time.Since(start))
	sink.terminal("result", resp)
}

// eventSink serializes SSE writes and seals the stream. Greedy reports its
// rounds synchronously on the solving goroutine, but the sink does not rely
// on that: the mutex keeps a round reported from any other goroutine from
// interleaving with another frame, and the done flag drops anything after
// the terminal (or after a write failure, which means the client is gone)
// so the ResponseWriter is never touched once the handler may have exited.
type eventSink struct {
	w       io.Writer
	flusher http.Flusher
	logf    func(format string, args ...any)

	mu   sync.Mutex
	done bool
}

// send emits one non-terminal event; after the terminal it is a no-op.
func (e *eventSink) send(event string, payload any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	//lint:ignore lockguard writing under e.mu is the point: a round frame must never interleave with another frame or follow the terminal event
	e.emit(event, payload)
}

// terminal emits the stream's final event and seals the sink.
func (e *eventSink) terminal(event string, payload any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	//lint:ignore lockguard the terminal frame must write-and-seal atomically under e.mu so no later round can slip out after it
	e.emit(event, payload)
	e.done = true
}

// emit writes one framed event and flushes it. Callers hold e.mu.
func (e *eventSink) emit(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		e.logf("lcrbd: stream: marshal %s event: %v", event, err)
		return
	}
	if _, err := fmt.Fprintf(e.w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		e.logf("lcrbd: stream: write %s event: %v", event, err)
		e.done = true
		return
	}
	e.flusher.Flush()
}
