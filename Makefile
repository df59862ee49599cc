# Convenience targets for the TASP-NoC reproduction.

GO ?= go
DATE ?= $(shell date +%F)

.PHONY: all build vet test lint nocvet race fuzz golden golden-check bench bench-json bench-gate experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis beyond vet. Runs staticcheck when it is on PATH (CI
# installs it); otherwise skips it so the target works in minimal
# environments. Either way it then runs nocvet, the in-tree analyzer suite
# that enforces the determinism and hot-path allocation contracts
# (DESIGN.md §10) — nocvet builds from this module, so it is always
# available.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) run ./cmd/nocvet ./...

# The in-tree analyzer suite alone (detrange, detsource, hotalloc, hotcopy,
# telemetrysafe — see DESIGN.md §10).
nocvet:
	$(GO) run ./cmd/nocvet ./...

# Race-detect the concurrent pieces: the simulator core (one network per
# goroutine), the parallel experiment engine, and the localization layer.
# The -count=2 passes re-run without the test cache so schedule-dependent
# interleavings get a second roll of the dice on every invocation.
race:
	$(GO) test -race ./internal/noc ./internal/exp
	$(GO) test -race -count=2 ./internal/locate
	$(GO) test -race -count=2 -run TestRunAll ./internal/exp
	$(GO) test -race -run 'TestWorkerCountInvariance|TestKillResume' ./internal/campaign

# Fuzz the header Encode/Decode round-trip across randomized layouts.
fuzz:
	$(GO) test -fuzz=FuzzHeaderRoundTrip -fuzztime=10s ./internal/flit

# Regenerate the paper's tables/figures and extension studies.
experiments:
	$(GO) run ./cmd/experiments -exp all

# Refresh the canonical-output golden file (only when an intentional output
# change lands; CI diffs against it byte-for-byte).
golden:
	$(GO) run ./cmd/experiments -exp all > testdata/golden/experiments-all-mesh.txt

# Verify the canonical 4x4 mesh output is byte-identical to the golden file.
golden-check:
	$(GO) run ./cmd/experiments -exp all > /tmp/experiments-all-mesh.txt
	diff -u testdata/golden/experiments-all-mesh.txt /tmp/experiments-all-mesh.txt

bench:
	$(GO) test -bench=. -benchmem -run xxx ./...

# Snapshot the simulator hot-path benchmarks as machine-readable JSON
# (BENCH_<date>.json) so the perf trajectory is tracked across PRs. Covers
# the clean Step benches (idle / uniform at 4x4, 8x8, 16x16 / drain) in
# internal/noc plus the under-attack bench at the repo root.
bench-json:
	$(GO) test -bench=NetworkStep -benchmem -run xxx ./internal/noc . \
		| $(GO) run ./cmd/benchjson -label "Network.Step hot path (clean + under attack)" > BENCH_$(DATE).json
	@cat BENCH_$(DATE).json

# The CI allocation gate, runnable locally: every hot-path benchmark a
# fixed 100 iterations, fail on any nonzero allocs/op, and show ns/op
# against the latest BENCH_<date>.json baseline. Covers the per-cycle Step
# benches (internal/noc, plus under attack at the repo root) and the
# per-point campaign engine benches (a warmed core.Runner arena in
# internal/core, the full simulate+fill+encode worker body in
# internal/campaign) — the steady-state 0 allocs/point contract behind
# thousand-point sweeps.
bench-gate:
	$(GO) test '-bench=NetworkStep|RunnerPoint|CampaignPoint' -benchtime=100x -benchmem -run xxx \
		./internal/noc ./internal/core ./internal/campaign . \
		| $(GO) run ./cmd/benchgate

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dos-attack
	$(GO) run ./examples/mitigation-sweep
	$(GO) run ./examples/trojan-designspace
	$(GO) run ./examples/trace-driven
	$(GO) run ./examples/scale-8x8

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache
