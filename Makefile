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
# telemetrysafe — see DESIGN.md §10).
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
	$(GO) test -race -run 'TestWorkerCountInvariance|TestKillResume' ./internal/campaign

# Fuzz the header Encode/Decode round-trip across randomized layouts.
fuzz:
	$(GO) test -fuzz=FuzzHeaderRoundTrip -fuzztime=10s ./internal/flit

# Regenerate the paper's tables/figures and extension studies.
experiments:
	$(GO) run ./cmd/experiments -exp all

# The extension studies outside -exp all, each pinned by its own golden file.
EXTENSIONS := locate adversary adaptive

# The cross-substrate studies are campaign presets, each pinned by its own
# golden file: <golden id>:<name>, where specs/<name>.json runs the grid and
# `aggregate -preset <name>` renders it.
PRESETS := topology:cross-topology scale:scale

# Refresh the golden files: the canonical output, one per extension and one
# per campaign preset (only when an intentional output change lands; CI
# diffs against them byte-for-byte).
golden:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/campaign ./cmd/campaign
	/tmp/experiments -exp all > testdata/golden/experiments-all-mesh.txt
	for e in $(EXTENSIONS); do /tmp/experiments -exp $$e > testdata/golden/extension-$$e.txt || exit 1; done
	for p in $(PRESETS); do \
		id=$${p%%:*}; name=$${p#*:}; \
		/tmp/campaign run -quiet -spec specs/$$name.json -out /tmp/preset-$$id.jsonl && \
		/tmp/campaign aggregate -in /tmp/preset-$$id.jsonl -preset $$name > testdata/golden/extension-$$id.txt || exit 1; \
	done

# Verify the canonical 4x4 mesh output, every extension's output and every
# campaign preset's table are byte-identical to their golden files.
golden-check:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/campaign ./cmd/campaign
	/tmp/experiments -exp all > /tmp/experiments-all-mesh.txt
	diff -u testdata/golden/experiments-all-mesh.txt /tmp/experiments-all-mesh.txt
	for e in $(EXTENSIONS); do \
		/tmp/experiments -exp $$e > /tmp/extension-$$e.txt && \
		diff -u testdata/golden/extension-$$e.txt /tmp/extension-$$e.txt || exit 1; \
	done
	for p in $(PRESETS); do \
		id=$${p%%:*}; name=$${p#*:}; \
		/tmp/campaign run -quiet -spec specs/$$name.json -out /tmp/preset-$$id.jsonl && \
		/tmp/campaign aggregate -in /tmp/preset-$$id.jsonl -preset $$name > /tmp/extension-$$id.txt && \
		diff -u testdata/golden/extension-$$id.txt /tmp/extension-$$id.txt || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem -run xxx ./...

# Snapshot the simulator hot-path benchmarks as machine-readable JSON
# (BENCH_<date>.json) so the perf trajectory is tracked across PRs. Covers
# the clean Step benches (idle / uniform at 4x4, 8x8, 16x16 / drain) in
# internal/noc plus the under-attack bench at the repo root. benchgate -json
# writes the document with the same parser the gate reads baselines with.
bench-json:
	$(GO) test -bench=NetworkStep -benchmem -run xxx ./internal/noc . \
		| $(GO) run ./cmd/benchgate -json -label "Network.Step hot path (clean + under attack)" > BENCH_$(DATE).json
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
