# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so `make verify` locally is the merge gate.

# bench pipes `go test` into the recorder; without pipefail a benchmark
# failure after the first result line would still exit 0.
SHELL := /bin/bash -o pipefail

# Perf-critical benchmarks: label-model training (P1), labeling-function
# pipeline throughput (P2), online serving, and LF execution. `make bench`
# runs them and merges the numbers into $(BENCH_OUT) under $(BENCH_LABEL),
# building the repository's performance trajectory release over release.
BENCH      ?= BenchmarkP1_SamplingFreeVsGibbs|BenchmarkP2_PipelineThroughput|BenchmarkServePredict$$|BenchmarkExecuteLFs|BenchmarkIncremental
BENCHTIME  ?= 1s
# Each benchmark runs BENCHCOUNT times and the recorder keeps the fastest
# observation, so a noisy neighbour can't skew the committed trajectory.
BENCHCOUNT ?= 3
BENCH_OUT  ?= BENCH_pr10.json
BENCH_LABEL ?= pr10
# obs-smoke writes the smoke run's Chrome trace here; CI's nightly bench job
# uploads it next to the benchmark numbers.
TRACE_OUT  ?= /tmp/drybell-obs-trace.json

.PHONY: build test verify vet loc bench bench-check bench-smoke obs-smoke remote-smoke chaos-smoke incremental-smoke

build:
	go build ./...

test:
	go test ./...

verify: build
	test -z "$$(gofmt -l .)"
	go vet ./...
	$(MAKE) vet
	$(MAKE) bench-check
	go test ./...

# Repo-specific invariants: the drybellvet analyzer suite (determinism,
# ctxflow, dfspath, lockcheck, voteenc). Exits non-zero on any finding.
vet:
	go run ./tools/drybellvet ./...

# The root module's non-test Go line count — the number simplicity PRs and
# ROADMAP quote. One command, so two people cannot measure it differently:
# bench/ is its own module and .bench_build/ is its build directory.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' -not -path './bench/*' | xargs cat | wc -l

# bench/ is a nested module (bench/go.mod replaces repro => ../), so
# `go build ./...` and `go test ./...` at the root never compile it — yet it
# calls into internal/lf, internal/core and pkg/drybell. Vet and test it with
# the environment bench/run.sh builds it in: caches under .bench_build/, no
# toolchain download, no module proxy, no user go env.
BENCH_BUILD := $(CURDIR)/.bench_build
bench-check:
	mkdir -p $(BENCH_BUILD)/tmp
	env GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath GOTMPDIR=$(BENCH_BUILD)/tmp \
		XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOTOOLCHAIN=local GOPROXY=off GOENV=off \
		sh -c 'go -C bench vet ./... && go -C bench test ./...'

bench:
	go test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . \
		| go run ./tools/benchjson -out $(BENCH_OUT) -label $(BENCH_LABEL)

# One-iteration smoke of the perf-critical benchmarks; CI runs this so the
# hot paths cannot silently rot between perf investigations.
bench-smoke:
	$(MAKE) bench BENCHTIME=1x BENCH_OUT=/tmp/drybell-bench-smoke.json BENCH_LABEL=smoke

# End-to-end observability smoke: run a small pipeline with tracing on, then
# validate the exported Chrome trace (parses, spans nest, timestamps sane).
# CI runs this so the trace exporter cannot silently produce timelines
# Perfetto refuses to load.
obs-smoke:
	go run ./cmd/drybell -task topic -docs 1500 -steps 100 -trace $(TRACE_OUT)
	go run ./tools/tracecheck $(TRACE_OUT)

# Multi-process end-to-end smoke of the remote execution backend: one
# coordinator process plus two worker processes over real sockets must
# produce vote and label artifacts byte-identical to an in-process run,
# and the workers must drain cleanly on SIGTERM. CI runs this so the
# lease protocol cannot rot behind the in-process test doubles.
remote-smoke:
	./scripts/remote_smoke.sh

# End-to-end smoke of the incremental path on a real on-disk root: base run
# + 10% append + IncrementalRun + Compact must leave input, vote, and label
# artifacts byte-identical to a cold full rerun while executing only the
# delta's documents. CI runs this so the versioned vote store and warm-start
# training cannot drift from "pure latency optimization" semantics.
incremental-smoke:
	./scripts/incremental_smoke.sh

# Overload-and-faults smoke: a real serve process driven past saturation by
# the open-loop generator through a fault-injecting transport. Fails unless
# the server sheds (it truly saturated), every admitted request answers,
# SIGTERM drains cleanly, and remote training under the same faults stays
# byte-identical. CI runs this so the admission/degradation machinery cannot
# rot behind the in-process tests.
chaos-smoke:
	./scripts/chaos_smoke.sh
