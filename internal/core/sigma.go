package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"lcrb/internal/diffusion"
)

// sigmaEvaluator estimates σ̂(A) over the fixed realizations, enforcing the
// context and the evaluation/wall-clock budgets. Estimates are integer
// counts — bridge ends left uninfected, summed over the realizations, so
// σ̂ × samples — which keeps every gain comparison exact: float σ̂
// differences carry rounding noise that would break gain ties at random.
//
// Evaluations can run concurrently — across the Monte-Carlo samples inside
// one estimate call and across the candidate seed sets of one estimateBatch
// call — without changing any result: every realization is a pure function
// of (realSeed, seed set), the per-end protected counts are integers (so
// their sum is exact in any order), and budget accounting is committed in
// submission order by the single coordinating goroutine. A completed run is
// therefore bit-identical for every worker count.
type sigmaEvaluator struct {
	ctx       context.Context
	p         *Problem
	realSeeds []uint64
	maxHops   int
	run       diffusion.Realization
	workers   int       // resolved concurrency, >= 1
	evals     int       // completed σ̂ evaluations charged so far
	maxEvals  int       // 0 = unlimited
	deadline  time.Time // zero = no wall-clock budget
	// cache memoizes σ̂ by canonical (sorted) seed set, so re-evaluating an
	// extension the run has already scored is free: no realizations, no
	// budget charge. Keys are deterministic, hence so are hits — the cache
	// never breaks worker-count invariance.
	cache map[string]int
}

// sigmaKey is the canonical cache key of a protector seed set: the sorted
// node ids in little-endian binary. Order-insensitive, collision-free.
func sigmaKey(protectors []int32) string {
	if len(protectors) == 0 {
		return ""
	}
	sorted := append([]int32(nil), protectors...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	buf := make([]byte, 4*len(sorted))
	for i, u := range sorted {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(u))
	}
	return string(buf)
}

// extendSet returns selected ∪ {u} in a freshly allocated slice. The copy
// matters: append(selected, u) would alias selected's spare backing
// capacity, so two extensions built from the same prefix would overwrite
// each other — silently corrupting a serial scan that retains both, and a
// data race once extensions are evaluated concurrently.
func extendSet(selected []int32, u int32) []int32 {
	s := make([]int32, len(selected)+1)
	copy(s, selected)
	s[len(selected)] = u
	return s
}

// expired reports whether the wall-clock budget has run out.
func (ev *sigmaEvaluator) expired() bool {
	return !ev.deadline.IsZero() && !time.Now().Before(ev.deadline)
}

// exhaustedErr is the MaxEvaluations expiry error after evals charged
// evaluations, for both engines.
func exhaustedErr(evals int) error {
	return fmt.Errorf("%w: %d evaluations used", ErrBudgetExhausted, evals)
}

// expiredErr is the wall-clock expiry error after evals charged
// evaluations, for both engines.
func expiredErr(evals int) error {
	return fmt.Errorf("%w: wall-clock budget spent after %d evaluations", ErrBudgetExhausted, evals)
}

// estimate returns the number of bridge ends left uninfected when the
// given protector seed set is used, summed over the realizations (σ̂ ×
// samples), running the Monte-Carlo samples on up to ev.workers
// goroutines. It fails fast on cancellation, budget expiry,
// or a realization error — callers receive the wrapped cause and decide
// whether the partial selection is still useful. Only a completed
// evaluation is charged against MaxEvaluations.
func (ev *sigmaEvaluator) estimate(protectors []int32) (int, error) {
	if err := ev.ctx.Err(); err != nil {
		return 0, err
	}
	key := sigmaKey(protectors)
	if v, ok := ev.cache[key]; ok {
		return v, nil
	}
	if ev.maxEvals > 0 && ev.evals >= ev.maxEvals {
		return 0, exhaustedErr(ev.evals)
	}
	if ev.expired() {
		return 0, expiredErr(ev.evals)
	}
	total, err := ev.runSamples(protectors, ev.workers)
	if err != nil {
		return 0, err
	}
	ev.evals++
	ev.cache[key] = total
	return total, nil
}

// estimateBatch evaluates σ̂ for many seed sets, running cache misses
// concurrently on up to ev.workers goroutines. Results and budget charges
// are committed in submission order, so the returned values, the
// evaluation count, and the error (if any) are exactly those of calling
// estimate on each set in sequence — the batch is an optimization, never a
// semantic change. On error the sets before the failing submission are
// still charged and cached; the error is returned in their stead.
func (ev *sigmaEvaluator) estimateBatch(sets [][]int32) ([]int, error) {
	if err := ev.ctx.Err(); err != nil {
		return nil, err
	}
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = sigmaKey(s)
	}

	// Misses in submission order, first occurrence of each key only: a
	// duplicate resolves from the cache once its first occurrence commits.
	var misses []int
	pending := make(map[string]bool)
	for i, k := range keys {
		if _, ok := ev.cache[k]; ok || pending[k] {
			continue
		}
		pending[k] = true
		misses = append(misses, i)
	}

	// MaxEvaluations is decided upfront in submission order: misses beyond
	// the remaining budget are never dispatched, exactly as the serial loop
	// would have stopped before them.
	allowed := len(misses)
	if ev.maxEvals > 0 {
		if rem := ev.maxEvals - ev.evals; rem < allowed {
			allowed = rem
		}
	}

	vals := make([]int, len(misses))
	errs := make([]error, len(misses))
	workers := ev.workers
	if workers > allowed {
		workers = allowed
	}
	if workers <= 1 {
		for j := 0; j < allowed; j++ {
			vals[j], errs[j] = ev.evaluateOne(sets[misses[j]])
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < allowed; j += workers {
					vals[j], errs[j] = ev.evaluateOne(sets[misses[j]])
				}
			}()
		}
		wg.Wait()
	}

	// Commit in submission order. Duplicate keys hit the cache entry their
	// first occurrence just committed; the first over-budget or failed
	// submission aborts with everything before it charged, exactly like the
	// serial scan.
	out := make([]int, len(sets))
	next := 0
	for i := range sets {
		if v, ok := ev.cache[keys[i]]; ok {
			out[i] = v
			continue
		}
		j := next
		next++
		if j >= allowed {
			return nil, exhaustedErr(ev.evals)
		}
		if errs[j] != nil {
			return nil, errs[j]
		}
		ev.evals++
		ev.cache[keys[i]] = vals[j]
		out[i] = vals[j]
	}
	return out, nil
}

// evaluateOne runs one batched evaluation: a wall-clock budget check (the
// serial loop checks before every estimate) followed by a serial sample
// sweep — batch concurrency comes from evaluating many seed sets at once,
// not from splitting each set's samples.
func (ev *sigmaEvaluator) evaluateOne(protectors []int32) (int, error) {
	if ev.expired() {
		return 0, expiredErr(ev.evals)
	}
	return ev.runSamples(protectors, 1)
}

// runSamples sums the protected-end counts of every fixed realization,
// using up to workers goroutines. The per-sample counts are integers, so
// the sum is exact regardless of evaluation order. The
// context is checked before every realization; a panicking realization is
// contained into an error wrapping diffusion.ErrPanic instead of tearing
// down the pool.
func (ev *sigmaEvaluator) runSamples(protectors []int32, workers int) (int, error) {
	n := len(ev.realSeeds)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var total int
		for i := 0; i < n; i++ {
			if err := ev.ctx.Err(); err != nil {
				return 0, err
			}
			c, err := ev.sampleOnce(protectors, i)
			if err != nil {
				return 0, err
			}
			total += c
		}
		return total, nil
	}

	totals := make([]int, workers)
	errs := make([]error, workers)
	errAt := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := ev.ctx.Err(); err != nil {
					errs[w], errAt[w] = err, i
					return
				}
				c, err := ev.sampleOnce(protectors, i)
				if err != nil {
					errs[w], errAt[w] = err, i
					return
				}
				totals[w] += c
			}
		}()
	}
	wg.Wait()
	if err := firstSampleError(errs, errAt); err != nil {
		return 0, err
	}
	var total int
	for _, t := range totals {
		total += t
	}
	return total, nil
}

// firstSampleError picks the error to surface from a sample sweep: the
// genuine failure at the smallest sample index, falling back to the
// cancellation error at the smallest index. Real failures outrank
// cancellation because a canceled sibling is fallout, not the cause.
func firstSampleError(errs []error, errAt []int) error {
	best, bestAt := error(nil), -1
	cancel, cancelAt := error(nil), -1
	for w, err := range errs {
		if err == nil {
			continue
		}
		if IsInterruption(err) {
			if cancelAt < 0 || errAt[w] < cancelAt {
				cancel, cancelAt = err, errAt[w]
			}
			continue
		}
		if bestAt < 0 || errAt[w] < bestAt {
			best, bestAt = err, errAt[w]
		}
	}
	if best != nil {
		return best
	}
	return cancel
}

// sampleOnce runs one fixed realization and counts the bridge ends it
// leaves uninfected. A panic in the realization (a broken custom engine)
// is recovered into an error wrapping diffusion.ErrPanic: with samples
// running on worker goroutines, an uncaught panic could not reach the
// caller at all — it would kill the process.
func (ev *sigmaEvaluator) sampleOnce(protectors []int32, i int) (count int, err error) {
	defer func() {
		if r := recover(); r != nil {
			count = 0
			err = fmt.Errorf("core: sigma sample %d: %w: %v\n%s", i, diffusion.ErrPanic, r, debug.Stack())
		}
	}()
	res, err := ev.run(
		ev.p.Graph, ev.p.Rumors, protectors, ev.realSeeds[i],
		diffusion.Options{MaxHops: ev.maxHops},
	)
	if err != nil {
		return 0, fmt.Errorf("core: sigma sample %d: %w", i, err)
	}
	for _, e := range ev.p.Ends {
		if res.Status[e] != diffusion.Infected {
			count++
		}
	}
	return count, nil
}
