GO ?= go

.PHONY: all build vet test race lint lint-fix lint-bench ci bench bench-all serve serve-smoke sketch-smoke shard-smoke delta-smoke load-smoke clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint gates on formatting, the standard vet passes, the repo's custom
# analyzers — the convention suite (mapiter, rngsource, ctxpair, errfmt)
# and the CFG/dataflow concurrency suite (goroleak, lockguard, ctxflow,
# detflow) — and the lint:ignore audit (every suppression must carry a
# real reason and still suppress something). lcrblint runs with -vet=false
# here because the full `go vet` on the line above already covers the
# standard passes.
lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lcrblint -vet=false ./...
	$(GO) run ./cmd/lcrblint -ignores ./...

# lint-fix applies the analyzers' suggested rewrites (currently the mapiter
# sorted-keys transform) in place, then reports what remains.
lint-fix:
	$(GO) run ./cmd/lcrblint -fix -vet=false ./...

# lint-bench times the full 8-analyzer lcrblint run over the module and
# fails over a 60s budget: the CFG/dataflow analyzers must stay cheap
# enough to run on every push, or they will get turned off.
lint-bench:
	@start=$$(date +%s); \
	$(GO) run ./cmd/lcrblint -vet=false ./... >/dev/null || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "lint-bench: lcrblint took $${elapsed}s (budget 60s)"; \
	if [ "$$elapsed" -gt 60 ]; then \
		echo "lint-bench: FAIL: over the 60s budget"; exit 1; fi

# ci is the gate the workflow runs: lint (fmt + vet + analyzers +
# suppression audit), the lint timing budget, build, the full suite under
# the race detector (which includes the bench-smoke selection fixture,
# cmd/lcrbbench TestBenchSmokeFixture), then the sketch, shard, delta,
# serving and load smoke tests.
ci: lint lint-bench build race sketch-smoke shard-smoke delta-smoke serve-smoke load-smoke

# sketch-smoke runs the fast RR-set sketch end-to-end check: build
# bit-identity across worker counts, an α-achieving zero-simulation solve,
# and an atomic save/load round trip.
sketch-smoke:
	$(GO) run ./cmd/lcrbbench -sketch-smoke

# shard-smoke runs the sharded scatter-gather solve tier end-to-end: a
# 1-coordinator/3-shard in-process solve that must be bit-identical to the
# single-store solver, then a scripted mid-solve shard kill whose degraded
# answer must match the 2-shard rebuild oracle with honest loss tags.
shard-smoke:
	$(GO) run ./cmd/lcrbbench -shard-smoke

# delta-smoke runs the dynamic-graph pipeline end-to-end: a 50-batch
# mutation stream where, at every version, the incrementally repaired
# sketch store must be DeepEqual to a full rebuild, the greedy answer must
# be bit-identical across shard counts 1 and 2, and scripted localized
# batches must re-draw zero realizations (the footprint-pruning ceiling).
delta-smoke:
	$(GO) run ./cmd/lcrbbench -delta-smoke

# serve boots the lcrbd solve daemon on the default address with fast
# defaults; Ctrl-C drains, a second Ctrl-C force-quits.
serve:
	$(GO) run ./cmd/lcrbd -addr 127.0.0.1:8080 -scale 0.05

# serve-smoke boots lcrbd on a random port, runs a normal solve, an
# over-deadline solve (which must answer degraded, not error), and a
# SIGTERM drain that must exit 0. See scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# load-smoke boots lcrbd with tenant quotas, storms it with the lcrbload
# open-loop generator (shedding, quota-shedding and coalescing all fire),
# writes BENCH_serve.json, and drains. See scripts/load_smoke.sh.
load-smoke:
	sh scripts/load_smoke.sh

# bench runs the greedy σ̂ micro-benchmark (serial vs parallel workers) and
# the end-to-end perf harness, which writes BENCH_greedy.json and fails if
# the parallel selection is not bit-identical to the serial one.
bench:
	$(GO) test -run '^$$' -bench BenchmarkGreedySigma -benchtime 1x ./internal/core/
	$(GO) run ./cmd/lcrbbench -perf BENCH_greedy.json

# bench-all runs every benchmark in the repo once.
bench-all:
	$(GO) test -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
