GO ?= go

.PHONY: build test race vet lint lint-fixtures fuzz verify bench-solver bench-svc trace-demo fleet-demo svc-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs mpclint, the project-specific static analyzers enforcing the
# determinism / float-safety / ctx-leak / lock-scope invariants that no
# test can hold, plus the //mpc:noalloc check
# against the compiler's escape analysis (go build -gcflags=-m): an
# escape or heap-move site inside an annotated function is a finding
# (DESIGN.md §4e, §4h). Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/mpclint ./...

# lint-fixtures runs the analyzer golden-fixture tests (testdata trees with
# `// want "..."` expectations) and the mpclint CLI smoke tests.
lint-fixtures:
	$(GO) test ./internal/lint/... ./cmd/mpclint/...

# fuzz smoke-runs every fuzz target (the /v1 JSON decode paths, the trace
# download-time walk and text-trace reader, the exact MPC solver against
# its recursive reference, and the offline optimum's bound cut against its
# uncut kernel) for FUZZTIME each, seeded from the committed corpora under
# testdata/fuzz and the targets' f.Add seeds.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSessionRequestJSON$$' -fuzztime $(FUZZTIME) ./internal/abrsvc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecideRequestJSON$$' -fuzztime $(FUZZTIME) ./internal/abrsvc/
	$(GO) test -run '^$$' -fuzz '^FuzzDownloadTimes$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveCutMatchesUncut$$' -fuzztime $(FUZZTIME) ./internal/optimal/

test:
	$(GO) test ./...

# race runs the entire test suite under the race detector.
race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: build, vet (of the root module and of
# perfbench, its own module that the root's ./... never compiles), gofmt
# (any file it lists fails), lint (including the escape-analysis
# reconciliation), and the whole test suite under the race detector.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@out=$$(gofmt -l .); echo "$$out"; test -z "$$out"
	$(GO) run ./cmd/mpclint ./...
	$(GO) test -race ./...

# bench-solver measures the MPC solver hot path and FastMPC table
# acquisition (a cold build and a registry hit) in ns/op and allocs/op. It
# gates nothing: the zero-allocation budgets are core's AllocsPerRun tests,
# and perfbench/ is the tracked, layer-by-layer benchmark.
bench-solver:
	$(GO) test -run '^$$' -bench BenchmarkSolver -benchmem .

# bench-svc load-tests a self-hosted abrd decision service over loopback,
# logs decisions/sec and the server-side p99, and fails if the 1 ms
# lookup-path p99 budget is blown.
bench-svc:
	$(GO) test -run TestSvcPerformance -count=1 -v .

# trace-demo serves a 20-chunk video from dashserver on 127.0.0.1:8931,
# waits for its "serving" line, plays it with dashclient (RobustMPC, both
# 20x time-compressed), and writes the session's Chrome trace-event
# timeline; open trace_demo.json in chrome://tracing or ui.perfetto.dev.
# The server is stopped and waited for when the recipe exits, however it
# exits.
trace-demo:
	@tmp=$$(mktemp -d); srv=; trap 'test -n "$$srv" && kill $$srv && wait $$srv; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/dashserver ./cmd/dashclient || exit 1; \
	"$$tmp/dashserver" -addr 127.0.0.1:8931 -chunks 20 -scale 20 > "$$tmp/server.out" & srv=$$!; \
	i=0; until grep -q serving "$$tmp/server.out"; do \
		i=$$((i+1)); test $$i -le 100 || { echo "trace-demo: dashserver did not start" >&2; exit 1; }; sleep 0.1; \
	done; \
	cat "$$tmp/server.out"; \
	"$$tmp/dashclient" -url http://127.0.0.1:8931 -scale 20 -trace-out trace_demo.json

# fleet-demo drives the built-in 10k-session scenario (RobustMPC vs
# buffer-based populations over an fcc+hsdpa trace mix) on the simulated
# backend and writes the per-population JSON report.
fleet-demo:
	$(GO) run ./cmd/fleet -sessions 10000 -report fleet_report.json

# svc-demo drives 1,200 concurrent sessions (FastMPC and RobustMPC
# populations) against a self-hosted abrd decision service over loopback
# HTTP — every per-chunk decision is a /v1/decide round trip — and writes
# the per-population JSON report.
svc-demo:
	$(GO) run ./cmd/fleet -backend svc -sessions 1200 -max-inflight 1200 -report svc_report.json
