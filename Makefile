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

# Static analysis beyond vet. Fails on any tracked Go file gofmt would
# change (git ls-files skips the ignored .bench_build/ tree). Runs
# staticcheck when it is on PATH (CI installs it); otherwise skips it so the
# target works in minimal environments. Either way it then runs nocvet, the
# in-tree analyzer suite that enforces the determinism and hot-path
# allocation contracts (DESIGN.md §10) — nocvet builds from this module, so
# it is always available.
lint: vet
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) run ./cmd/nocvet ./...

# The in-tree analyzer suite alone (detrange, detsource, hotalloc, hotcopy,
# telemetrysafe, deadexport — see DESIGN.md §10).
nocvet:
	$(GO) run ./cmd/nocvet ./...

# Race-detect the concurrent pieces: the simulator core (one network per
# goroutine), the parallel experiment engine (experiments across workers,
# each experiment's points across GOMAXPROCS through the fanOut helper), and
# the localization layer. The -count passes re-run without the test cache so
# schedule-dependent interleavings get more rolls of the dice on every
# invocation.
race:
	$(GO) test -race ./internal/noc ./internal/exp
	$(GO) test -race -count=2 ./internal/locate
	$(GO) test -race -count=2 -run TestRunAll ./internal/exp
	$(GO) test -race -count=10 -run TestFanOut ./internal/exp
	$(GO) test -race -run 'TestWorkerCountInvariance|TestKillResume|TestRunStopsAtTheInvalidPoint' ./internal/campaign

# Fuzz the header Encode/Decode round-trip across randomized layouts, the
# event-driven core's per-cycle invariants and flit conservation across
# random platforms, loads, faults and a mid-run link disable, a network
# restored from a checkpoint against the run it was saved from, campaign
# spec parsing, validation, hashing and expansion on malformed input,
# campaign resume from malformed checkpoint sidecars, campaign record
# reading from malformed JSONL, and the attacker placement's reachability
# test against reroute.Build over random disabled-link sets.
fuzz:
	$(GO) test -fuzz=FuzzHeaderRoundTrip -fuzztime=10s ./internal/flit
	$(GO) test -run xxx -fuzz=FuzzStepInvariants -fuzztime=10s ./internal/noc
	$(GO) test -run xxx -fuzz=FuzzCheckpointResume -fuzztime=10s ./internal/noc
	$(GO) test -run xxx -fuzz=FuzzSpec -fuzztime=10s ./internal/campaign
	$(GO) test -run xxx -fuzz=FuzzResume -fuzztime=10s ./internal/campaign
	$(GO) test -run xxx -fuzz=FuzzRecords -fuzztime=10s ./internal/campaign
	$(GO) test -run xxx -fuzz=FuzzReachability -fuzztime=10s ./internal/reroute

# Regenerate the paper's tables/figures and extension studies.
experiments:
	$(GO) run ./cmd/experiments -exp all

# The extension studies are campaign presets, each pinned by its own golden
# file: specs/<name>.json runs the grid, `aggregate -preset <name>` renders
# it, and testdata/golden/extension-<name>.txt holds the seed-1 table. The
# order is campaign.Presets().
PRESETS := cross-topology scale locate adversary adaptive

# Refresh the golden files: the canonical output and one per campaign preset
# (only when an intentional output change lands; CI diffs against them
# byte-for-byte).
golden:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/campaign ./cmd/campaign
	/tmp/experiments -exp all > testdata/golden/experiments-all-mesh.txt
	for p in $(PRESETS); do \
		/tmp/campaign run -quiet -spec specs/$$p.json -out /tmp/preset-$$p.jsonl && \
		/tmp/campaign aggregate -in /tmp/preset-$$p.jsonl -preset $$p > testdata/golden/extension-$$p.txt || exit 1; \
	done

# Verify the canonical 4x4 mesh output and every campaign preset's table are
# byte-identical to their golden files.
golden-check:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/campaign ./cmd/campaign
	/tmp/experiments -exp all > /tmp/experiments-all-mesh.txt
	diff -u testdata/golden/experiments-all-mesh.txt /tmp/experiments-all-mesh.txt
	for p in $(PRESETS); do \
		/tmp/campaign run -quiet -spec specs/$$p.json -out /tmp/preset-$$p.jsonl && \
		/tmp/campaign aggregate -in /tmp/preset-$$p.jsonl -preset $$p > /tmp/extension-$$p.txt && \
		diff -u testdata/golden/extension-$$p.txt /tmp/extension-$$p.txt || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem -run xxx ./...

# Snapshot the simulator hot-path benchmarks as machine-readable JSON
# (BENCH_<date>.json) so the perf trajectory is tracked across PRs. Covers
# the clean Step benches (idle / uniform at 4x4, 8x8, 16x16 / drain) in
# internal/noc plus the under-attack bench at the repo root, and the
# 256-router platform set-up (BenchmarkPlatformSetup, internal/core: what
# the end-to-end benchmark's setup_s times). Each benchmark runs five times
# and benchgate -json, the same parser the gate uses, records each metric's
# median with its minimum, maximum and run count: one run varies too much
# on a shared host to compare.
bench-json:
	$(GO) test '-bench=NetworkStep|PlatformSetup' -benchmem -count=5 -run xxx ./internal/noc ./internal/core . \
		| $(GO) run ./cmd/benchgate -json -label "Network.Step hot path (clean + under attack) and platform set-up" > BENCH_$(DATE).json
	@cat BENCH_$(DATE).json

# The CI allocation gate, runnable locally: every hot-path benchmark a
# fixed 100 iterations, fail on any nonzero allocs/op. It prints no ns/op:
# 100-iteration times are not comparable with the default-benchtime
# medians of BENCH_<date>.json (`make bench-json`). Covers the per-cycle Step
# benches (internal/noc, plus under attack and one cycle of the flood
# ablation under odd-even routing at the repo root) and the
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
