package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcrb/internal/rng"
)

// op is one generated operation of a workload: a solve request or a graph
// delta, with the offset from the start of the load at which it is due.
// A workload's ops are a pure function of its seed.
type op struct {
	ID  int64         `json:"id"`
	Due time.Duration `json:"dueNs"`
	// Step is the arrival-rate ladder step the op belongs to.
	Step  int        `json:"step"`
	Solve *solveReq  `json:"solve,omitempty"`
	Delta *deltaBody `json:"delta,omitempty"`
}

// solveReq is the body of POST /v1/solve as the benchmark sends it. Pool
// indexes the workload's problem pool and is not sent.
type solveReq struct {
	Dataset       string  `json:"dataset"`
	Scale         float64 `json:"scale"`
	Seed          uint64  `json:"seed"`
	CommunitySize int     `json:"communitySize"`
	RumorFraction float64 `json:"rumorFraction"`
	Algorithm     string  `json:"algorithm"`
	TimeoutMillis int64   `json:"timeoutMillis,omitempty"`
	Pool          int     `json:"-"`
}

// deltaBody is the body of POST /v1/graph/delta.
type deltaBody struct {
	BaseVersion uint64     `json:"baseVersion"`
	AddEdges    [][2]int32 `json:"addEdges,omitempty"`
	RemoveEdges [][2]int32 `json:"removeEdges,omitempty"`
}

// arrivals returns the due offsets of n arrivals spread uniformly at
// random over [from, from+dur), ascending: a Poisson process conditioned
// on its count, so every seed offers the same load.
func arrivals(src *rng.Source, n int, from, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(src.Float64()*float64(dur))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// outcome is what happened to one op.
type outcome struct {
	Sent bool
	// Due, Start and End are offsets from the start of the load: when the
	// op was due, when a worker began sending it, and when it finished.
	Due, Start, End time.Duration
	Err             error
}

// latency is the op's time from when it was due to when it finished, so
// time spent queued behind a stalled op counts against the ops behind it.
func (o outcome) latency() time.Duration { return o.End - o.Due }

// service is the op's time from when a worker began sending it to when it
// finished: what the daemon and the connection cost, without the
// generator's own timer lateness or queueing behind the op's predecessors.
func (o outcome) service() time.Duration { return o.End - o.Start }

// late is how far behind schedule the op was sent.
func (o outcome) late() time.Duration { return o.Start - o.Due }

// openLoop sends ops on their schedule with a fixed set of workers: a
// dispatcher releases each op at its due time whether or not earlier ops
// have finished, and ops wait in a queue while every worker is busy. It
// returns when every released op has finished; ops not released before
// ctx ends are reported unsent.
func openLoop(ctx context.Context, dues []time.Duration, workers int, do func(ctx context.Context, i int) error) []outcome {
	outs := make([]outcome, len(dues))
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy worker and stays on schedule.
	queue := make(chan int, len(dues))
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := outcome{Sent: true, Due: dues[i], Start: time.Since(t0)}
				o.Err = do(ctx, i)
				o.End = time.Since(t0)
				outs[i] = o
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, due := range dues {
		if wait := due - time.Since(t0); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			case <-timer.C:
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// closedLoop runs clients that each send the next unsent op as soon as
// their previous one finished, until dur elapses or the ops run out. Due
// is the send time: a closed loop has no schedule to fall behind.
func closedLoop(ctx context.Context, n, clients int, dur time.Duration, do func(ctx context.Context, i int) error) []outcome {
	outs := make([]outcome, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				start := time.Since(t0)
				o := outcome{Sent: true, Due: start, Start: start}
				o.Err = do(ctx, i)
				o.End = time.Since(t0)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// newClient returns the benchmark's HTTP client: at most conns
// connections to the daemon, however many goroutines share it.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
		},
		Timeout: 60 * time.Second,
	}
}
