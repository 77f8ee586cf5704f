// Package a exercises the ctxflow analyzer: re-rooting, dropped
// contexts, and struct-field stores.
package a

import "context"

func run(ctx context.Context) { _ = ctx }

type worker struct {
	drain context.Context // declaring the field is fine; stores are flagged
	n     int
}

// --- rule A: no re-rooting while a context is in scope ---

func reroot(ctx context.Context) {
	run(context.Background()) // want `context.Background\(\) re-roots cancellation although ctx is in scope; thread ctx instead`
}

func rerootTODO(ctx context.Context) {
	run(context.TODO()) // want `context.TODO\(\) re-roots cancellation although ctx is in scope; thread ctx instead`
}

// noScope has no context in scope, so rooting at Background is the only
// option and is fine.
func noScope() {
	run(context.Background())
}

func inheritsScope(ctx context.Context) {
	f := func() {
		run(context.Background()) // want `context.Background\(\) re-roots cancellation although ctx is in scope; thread ctx instead`
	}
	f()
}

func bindsOwn(ctx context.Context) {
	f := func(inner context.Context) {
		run(context.Background()) // want `context.Background\(\) re-roots cancellation although inner is in scope; thread inner instead`
	}
	f(ctx)
}

type solver struct {
	run context.Context
	n   int
}

// DoContext is the context-aware variant rule B resolves siblings
// against.
func (s *solver) DoContext(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// Do delegates to DoContext with a fresh root. With s.run in scope that
// is still a re-root: rule A has no delegate exemption.
func (s *solver) Do(n int) int {
	return s.DoContext(context.Background(), n) // want `context.Background\(\) re-roots cancellation although s.run is in scope; thread s.run instead`
}

func (s *solver) rerootFromField() {
	run(context.Background()) // want `context.Background\(\) re-roots cancellation although s.run is in scope; thread s.run instead`
}

// --- rule B: no dropping a context when a Context sibling exists ---

// probe mirrors the serving-layer regression: a method whose receiver
// carries a drain context calls the plain variant of a context-aware API,
// so a draining daemon cannot cancel the work.
func (s *solver) probe() int {
	return s.Do(1) // want `call to Do drops s\.run; call DoContext and pass it`
}

func (s *solver) probeFixed() int {
	return s.DoContext(s.run, 1)
}

func Fetch(n int) int { return n }

func FetchContext(ctx context.Context, n int) int {
	_ = ctx
	return n
}

func dropsCtx(ctx context.Context) int {
	return Fetch(1) // want `call to Fetch drops ctx; call FetchContext and pass it`
}

func threadsCtx(ctx context.Context) int {
	return FetchContext(ctx, 1)
}

// callerWithoutScope may call the plain variant: there is no context to
// drop.
func callerWithoutScope() int {
	return Fetch(1)
}

// --- rule C: no storing contexts in struct fields ---

func storeInComposite(ctx context.Context) *worker {
	return &worker{drain: ctx, n: 1} // want `context stored in struct field drain; pass it per call instead of pinning a lifetime`
}

func storeByAssign(w *worker, ctx context.Context) {
	w.drain = ctx // want `context stored in struct field w\.drain; pass it per call instead of pinning a lifetime`
}

// nilFallback is flagged by design: the nil-guard re-root is legitimate
// in a few audited constructors, which carry reasoned lint:ignore
// directives instead of a blanket exemption.
func nilFallback(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background() // want `context.Background\(\) re-roots cancellation although ctx is in scope; thread ctx instead`
	}
	run(ctx)
}
