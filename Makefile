GO ?= go

.PHONY: all build vet test race lint lint-fix lint-bench perfbench-check shape-gate ci bench bench-sketch bench-all serve serve-smoke load-smoke clean

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
# analyzers — the convention suite (mapiter, rngsource, errfmt) and the
# CFG/dataflow concurrency suite (goroleak, lockguard, ctxflow, detflow) —
# and the lint:ignore audit (every suppression must carry a
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

# lint-bench times the full 7-analyzer lcrblint run over the module and
# fails over a 60s budget: the CFG/dataflow analyzers must stay cheap
# enough to run on every push, or they will get turned off.
lint-bench:
	@start=$$(date +%s); \
	$(GO) run ./cmd/lcrblint -vet=false ./... >/dev/null || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "lint-bench: lcrblint took $${elapsed}s (budget 60s)"; \
	if [ "$$elapsed" -gt 60 ]; then \
		echo "lint-bench: FAIL: over the 60s budget"; exit 1; fi

# perfbench-check vets and tests the benchmark module. perfbench is its own
# module (it imports internal/ through a replace directive), so `go build
# ./...` never compiles it and an internal API change could break the
# benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# shape-gate reruns the paper's evaluation at paper scale and fails unless
# every job's shape report reads OK. See scripts/shape_gate.sh.
shape-gate:
	sh scripts/shape_gate.sh

# ci is the gate the workflow runs: lint (fmt + vet + analyzers +
# suppression audit), the lint timing budget, build, the perfbench compile
# gate, the full suite under the race detector, the sketch benchmark
# smoke, the paper-scale shape gate, then the serving and load smoke
# tests. The sketch and delta gates are ordinary Go tests inside the race
# run: the selection fixture (cmd/lcrbbench TestBenchSmokeFixture), sketch
# worker-count identity, the RR-set ≡ CRN identity and store round trip
# (internal/sketch), and repair ≡ rebuild (internal/sketch
# TestRepairMatchesRebuildOracleGeneratedStream).
ci: lint lint-bench build perfbench-check race bench-sketch shape-gate serve-smoke load-smoke

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

# bench runs the greedy σ̂ micro-benchmark, serial against parallel
# workers. BENCH_perf.json records a longer run of it with its environment.
bench:
	$(GO) test -run '^$$' -bench BenchmarkGreedySigma -benchtime 1x ./internal/core/

# bench-sketch runs every internal/rrset and internal/sketch micro-benchmark
# once (sampler, pair index, cover, RIS solve), and SCBG on both engines at
# the paper's Enron scale, so they keep compiling and running.
bench-sketch:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/rrset/ ./internal/sketch/
	$(GO) test -run '^$$' -bench BenchmarkSCBG -benchtime 1x ./internal/core/

# bench-all runs every benchmark in the repo once.
bench-all:
	$(GO) test -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
