GO ?= go

.PHONY: build test vet lint race tier-diff bench bench-cache bench-exec bench-serve cache-smoke serve-smoke check-docs example-smoke trace-smoke campaign-smoke perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static hygiene in one command: vet, formatting drift, and the static
# verifier's own suite (tier staging, the hand-broken corpus, mutation
# tests over real DSWP/HELIX lowerings).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi
	$(GO) test ./internal/ir/ ./internal/irtext/ ./internal/verify/

# The manager's and the parallel runtime's concurrency guarantees are
# only meaningful under -race; run the whole tree (the speedup
# assertion is skipped — -race skews wall-clock ratios).
race:
	NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./...

# Execution-tier differential: the interpreter, communication-runtime,
# and evaluation suites (dispatch, queue/signal pipelines, the execution
# study) must pass with either engine forced process-wide, under
# -race — the walker is the reference oracle, and the compiled tier has
# to be behaviourally indistinguishable from it even when every test in
# those suites runs on it. The final non-race run enforces the compiled
# tier's >= 2x wall-clock bar over the walker on bench.WholeProgram
# (TestCompiledTierSpeedup; its noise margin is documented at the
# assertion) plus the byte-identical corpus/pipeline agreement suite.
tier-diff:
	NOELLE_ENGINE=walker NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./internal/interp/... ./internal/queue/... ./internal/eval/
	NOELLE_ENGINE=compiled NOELLE_SKIP_SPEEDUP_TEST=1 $(GO) test -race ./internal/interp/... ./internal/queue/... ./internal/eval/
	$(GO) test -run 'TestTiersAgree|TestCompiledTierSpeedup' -v ./internal/interp/

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The warm-load trajectory: cold (full alias solve per run) vs warm
# (persistent store decode per run) on the bundled whole-program module.
bench-cache:
	$(GO) test -bench 'FunctionPDG(Cold|Warm)' -benchtime=3x -run '^$$' .

# Two-process warm-load smoke check through the real CLIs: the second
# noelle-load run over the same input must build zero PDGs (asserted via
# noelle-cache stats).
cache-smoke:
	bash scripts/cache_smoke.sh

# Compile-service smoke through the real daemon under -race: concurrent
# mixed requests, an identical burst that must coalesce, a warm re-run
# that must hit the resident session and byte-match a cold noelle-load
# run, then a graceful drain (asserted via the stats endpoint and a
# report diff — see scripts/serve_smoke.sh).
serve-smoke:
	bash scripts/serve_smoke.sh

# Warm-vs-cold service study: identical client fleets at several
# concurrency levels against a session-reusing daemon and a
# cold-per-request one, recorded as JSON with throughput and
# p50/p95/p99 latency. Gates on warm mean latency >= 2x better.
bench-serve:
	$(GO) run ./scripts/benchserve -mode bench -o BENCH_serve.json

# The execution study: both bundled benchmarks lowered by every
# technique and the auto orchestrator, on both engines and every worker
# count up to the host's CPUs, each cell timing the original program,
# the lowered -seq run and the parallel run (median of 5 interleaved
# runs), recorded as JSON. Fails on any divergence from the original.
bench-exec:
	$(GO) run ./scripts/benchexec -o BENCH_exec.json

# Observability smoke: the execution bench with -trace must produce a
# well-formed Chrome trace (monotonic per-lane timestamps, named
# processes/threads — validated by scripts/tracecheck), next to the
# usual BENCH_exec.json with its attribution blocks.
trace-smoke:
	$(GO) run ./scripts/benchexec -trace trace_exec.json -o BENCH_exec.json
	$(GO) run ./scripts/tracecheck trace_exec.json

# Differential fuzzing smoke under -race: 200 fixed-seed generated
# programs swept across every technique plus the auto orchestrator
# (both engines always run — walker vs compiled is an oracle), then the
# stress, fault-injection, and miscompile-injection legs. Fixed seeds
# keep the run deterministic and replayable; any failure writes a
# minimized .nir reproducer under fuzz-failures/. The inject leg exits
# non-zero unless the seeded miscompile is caught, so the harness's
# detection power is itself gated.
campaign-smoke:
	$(GO) run -race ./cmd/noelle-fuzz -leg campaign -seeds 200 -blocks 4 -arrays 3 -arraylen 32 \
		-matrix "tech=doall,dswp,helix,auto;cores=2;qcap=0" -parallel 4
	$(GO) run -race ./cmd/noelle-fuzz -leg stress -seeds 12 -blocks 4 -arrays 3 -arraylen 32
	$(GO) run -race ./cmd/noelle-fuzz -leg faults -seeds 12 -blocks 4 -arrays 3 -arraylen 32
	$(GO) run -race ./cmd/noelle-fuzz -leg inject -seeds 40 -blocks 4 -arrays 3 -arraylen 32

# Documentation consistency: markdown links resolve, cmd/README.md lists
# every binary under cmd/, and every registered tool is described there.
check-docs:
	$(GO) run ./scripts/checkdocs

# The examples/parallelize walkthrough, replayed through the real CLIs
# against its committed expected output.
example-smoke:
	bash scripts/example_smoke.sh

# The repository benchmark's own tests (perfbench/ is a separate Go
# module, so ./... from the root does not reach it).
perfbench-test:
	cd perfbench && $(GO) test .
