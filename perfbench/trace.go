package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, interval (offsets from
// the tracer's origin), the span that caused it and the request it served.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"` // index into the tracer's spans, -1 for a root
	Req    int64         `json:"req"`
}

// tracer records spans and counts in memory. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from the recording itself.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

// newTracer returns a recording tracer, or nil when on is false.
func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{origin: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds v to the named counter, recorded at the same layer boundary
// as the span around the call that produced it.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls int
	// Self is the total self time; SelfEach lists each call's self time.
	Self     time.Duration
	SelfEach []time.Duration
}

// medianMs is the median self time per call in milliseconds.
func (l layerStat) medianMs() float64 {
	xs := make([]float64, len(l.SelfEach))
	for i, d := range l.SelfEach {
		xs[i] = ms(d)
	}
	return median(xs)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children (overlapping children counted
// once). Open spans count as empty.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			cs, ce := spans[c].Start, spans[c].End
			if ce < cs {
				continue
			}
			if cs < s.Start {
				cs = s.Start
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				ivs = append(ivs, [2]time.Duration{cs, ce})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		var curS, curE time.Duration = -1, -1
		for _, iv := range ivs {
			if iv[0] > curE {
				covered += curE - curS
				curS, curE = iv[0], iv[1]
			} else if iv[1] > curE {
				curE = iv[1]
			}
		}
		covered += curE - curS
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layers aggregates self times by span name.
func (t *tracer) layers() map[string]*layerStat {
	out := make(map[string]*layerStat)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.Calls++
		l.Self += self[i]
		l.SelfEach = append(l.SelfEach, self[i])
	}
	return out
}

// reconcile checks, for every root span, that the self times of its
// subtree add up to no more than the root's own duration: layer time can
// not exceed the end-to-end time it is part of. Concurrent children of one
// parent would break this, so it also catches spans recorded from the
// wrong goroutine.
func (t *tracer) reconcile() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	root := make([]int, len(t.spans))
	sum := make(map[int]time.Duration)
	for i, s := range t.spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
		sum[root[i]] += self[i]
	}
	for r, total := range sum {
		s := t.spans[r]
		if s.End < s.Start {
			return fmt.Errorf("trace: root span %q never ended", s.Name)
		}
		if total > s.End-s.Start {
			return fmt.Errorf("trace: self times under %q add up to %v, more than its %v", s.Name, total, s.End-s.Start)
		}
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
