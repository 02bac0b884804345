# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so `make verify` locally is the merge gate.

# obs-smoke writes the smoke run's Chrome trace here.
TRACE_OUT  ?= /tmp/drybell-obs-trace.json

.PHONY: build test verify vet loc bench-check obs-smoke remote-smoke chaos-smoke

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
# ctxflow, dfspath, lockcheck, voteenc, testonly). Exits non-zero on any
# finding. It also loads the nested bench/ module, whose calls testonly
# counts; its go list calls run offline, as bench-check's do.
vet:
	GOTOOLCHAIN=local GOPROXY=off go run ./tools/drybellvet ./...

# The root module's non-test Go line count — the number simplicity PRs and
# ROADMAP quote. One command, so two people cannot measure it differently:
# bench/ is its own module, .bench_build/ is its build directory, and the
# analyzers' testdata/ fixtures are test inputs.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

# bench/ is a nested module (bench/go.mod replaces repro => ../), so
# `go build ./...` and `go test ./...` at the root never compile it — yet it
# calls into pkg/drybell and the internal packages under it. Vet and test it
# with the environment bench/run.sh builds it in: caches under .bench_build/,
# no toolchain download, no module proxy, no user go env.
BENCH_BUILD := $(CURDIR)/.bench_build
bench-check:
	mkdir -p $(BENCH_BUILD)/tmp
	env GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath GOTMPDIR=$(BENCH_BUILD)/tmp \
		XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOTOOLCHAIN=local GOPROXY=off GOENV=off \
		sh -c 'go -C bench vet ./... && go -C bench test ./...'

# End-to-end observability smoke: run a small pipeline with tracing on, then
# validate the exported Chrome trace (parses, spans nest, timestamps sane).
# CI runs this so the trace exporter cannot silently produce timelines
# Perfetto refuses to load. The events run also drives the CLI's events task,
# whose records are binary, end to end.
obs-smoke:
	go run ./cmd/drybell -task topic -docs 1500 -steps 100 -trace $(TRACE_OUT)
	go run ./tools/tracecheck $(TRACE_OUT)
	go run ./cmd/drybell -task events -docs 2000 -steps 50 -trace $(TRACE_OUT)
	go run ./tools/tracecheck $(TRACE_OUT)

# Multi-process end-to-end smoke of the remote execution backend: one
# coordinator process plus two worker processes over real sockets must
# produce vote and label artifacts byte-identical to an in-process run,
# and the workers must drain cleanly on SIGTERM. CI runs this so the
# lease protocol cannot rot behind the in-process test doubles.
remote-smoke:
	./scripts/remote_smoke.sh

# Overload-and-faults smoke: a real serve process driven past saturation by
# the open-loop generator through a fault-injecting transport. Fails unless
# the server sheds (it truly saturated), every admitted request answers,
# SIGTERM drains cleanly, and remote training under the same faults stays
# byte-identical. CI runs this so the admission/degradation machinery cannot
# rot behind the in-process tests.
chaos-smoke:
	./scripts/chaos_smoke.sh
