# The CI jobs in .github/workflows/ci.yml run these targets, so each
# command line is written once, here, and what passes locally passes
# there.

GO ?= go

.PHONY: build test test-short fuzz bench bench-baseline bench-check bench-module docs fmt vet staticcheck cover smoke timeline-smoke cluster-smoke obs-smoke loadtest check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 30m ./...

test-short:
	$(GO) test -short -race ./...

# Fuzz past the committed seed corpora (testdata/fuzz/<Target>, which
# plain `go test` runs): the serve delta codec (FuzzDelta: the size
# bound, NewEntry's bytes and hostile delta bytes), the four estimators
# (FuzzEstimate: hostile loads and mis-sized priors and warm starts),
# checkpoint restore (FuzzCheckpoint: hostile checkpoint bytes), the
# timeline DSL (FuzzTimeline: hostile scripts through Parse and Compile),
# the fleet and cluster configs (FuzzFleetConfig, FuzzClusterConfig:
# reject with a named error or round-trip through JSON), the
# exposition linter (FuzzLint: accept or reject with a "line N:" or
# "histogram" error, never panic), then the entropy solver's KL prox
# (FuzzKLProx: bit-identical to the reference Newton loop). A failing
# input is written to the target's corpus directory; commit it as a
# regression seed. Every target bounds each minimization of a new input
# to 10 runs: the default 60 s minimization of one large input ate the
# whole budget, first for FuzzDelta (whose interesting inputs run to
# ~33 KB) and then for FuzzCheckpoint, which stalled at 0 execs/s.
FUZZTIME ?= 15s
FUZZFLAGS = -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
fuzz:
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzDelta$$' ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzEstimate$$' ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzCheckpoint$$' ./internal/stream
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzTimeline$$' ./internal/timeline
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzFleetConfig$$' ./internal/fleet
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzClusterConfig$$' ./internal/cluster
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzLint$$' ./internal/obs
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzKLProx$$' ./internal/solver

# Full driver-by-driver benchmarks plus the serial-vs-parallel suite
# comparison. Narrow with e.g. BENCH='FullSuite'.
BENCH ?= .
bench:
	$(GO) test -timeout 60m -bench '$(BENCH)' -benchtime 1x -run '^$$' .

# Regenerate the checked-in benchmark baseline (BASELINE names the
# output; git history keeps the trajectory). Absolute numbers are
# machine-dependent; the baseline exists so successive PRs on the same
# hardware have a perf trajectory to diff against.
# The awk locates each unit token instead of using fixed field numbers:
# benchmarks that b.ReportMetric a custom metric (e.g. MRE) print it
# between ns/op and B/op, which would shift positional fields.
BASELINE ?= BENCH_baseline.json
bench-baseline:
	$(GO) test -timeout 60m -bench . -benchtime 1x -benchmem -run '^$$' . > bench.out
	$(GO) test -timeout 10m -bench 'HubEncode' -benchtime 20x -benchmem -run '^$$' ./internal/serve >> bench.out
	awk 'BEGIN { print "{"; first=1 } \
	     /^Benchmark/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
	       ns="0"; bytes="0"; allocs="0"; \
	       for (i = 2; i <= NF; i++) { \
	         if ($$i == "ns/op") ns=$$(i-1); \
	         else if ($$i == "B/op") bytes=$$(i-1); \
	         else if ($$i == "allocs/op") allocs=$$(i-1); \
	       } \
	       if (!first) printf(",\n"); first=0; \
	       printf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs) } \
	     END { print "\n}" }' bench.out > $(BASELINE)
	@rm -f bench.out
	@echo "wrote $(BASELINE)"

# Benchmark regression gate, run by CI's bench job: the scale
# benchmarks plus two seed-era anchors, and the serve encode
# (BenchmarkHubEncode, 20 encodes per sample), each run three times and
# compared by its median against the checked-in baseline at a 2x ns/op
# threshold and — via -benchmem — a 2x allocs/op threshold
# (cmd/benchdiff).
# (No tee: the recipe must fail on go test's exit code, not the pipe
# tail's, so a b.Fatal mid-run cannot produce a green partial gate.)
bench-check:
	$(GO) test -timeout 30m -bench 'Scale|Table1Vardi|ScenarioBuild|StreamResolve|FleetResolveFanout|SnapshotFanout|EngineIngest|TimelineSwap|PromScrape' -benchtime 1x -count 3 -benchmem -run '^$$' . > bench-check.out
	$(GO) test -timeout 10m -bench 'HubEncode' -benchtime 20x -count 3 -benchmem -run '^$$' ./internal/serve >> bench-check.out
	$(GO) run ./cmd/benchdiff -factor 2 -alloc-factor 2 -baseline BENCH_baseline.json bench-check.out
	@rm -f bench-check.out

# The frozen end-to-end benchmark (bench/, a module of its own that
# imports this one through a replace directive): vet it and run its
# tests, which include TestSmoke's check of the batch MREs against
# bench/tmperf/batch_reference.json (~15 s). Root `go test ./...` does
# not reach it, so this is what catches a change here that breaks it
# (CI's check job runs it).
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Docs gate: every package carries a package comment, the README flag
# table matches the real flag sets, METHODS.md covers every estimation
# method and experiment ID, docs/API.md lists every served route,
# docs/METRICS.md matches the live /metrics/prom registries, and no
# exported production declaration is reached only from tests
# (TestReachability).
docs:
	$(GO) test -run 'TestPackageComments|TestREADMEFlagDrift|TestMETHODSCoverage|TestAPIDocDrift|TestMetricsDocDrift|TestReachability' .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Pinned to the version and check set CI's check job uses; bump the
# two together.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 -checks 'SA*' ./...

# Coverage floor over the library packages, as run by CI's full job:
# fails when the total falls below COVER_FLOOR. The floor is a ratchet
# against silently landing untested subsystems, not a target: when new
# tests push the total up, round it DOWN leaving ~3-4 points of slack
# for timing-dependent paths and bump COVER_FLOOR here. Measured 84.7%
# when the floor was set.
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -timeout 30m -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	rm -f cover.out; \
	echo "total internal coverage: $${total}% (floor $(COVER_FLOOR)%)"; \
	if ! awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }'; then \
		echo "coverage $${total}% fell below the $(COVER_FLOOR)% floor" >&2; \
		exit 1; \
	fi

# Fleet serving smoke: boot a 4-tenant tmserve fleet, read every
# tenant's snapshot, restart from -checkpoint-dir (CI's fleet-smoke job).
smoke:
	bash scripts/fleet_smoke.sh

# Timeline smoke: drive a 2-tenant scripted fleet through one full
# failure + restore cycle, gating on zero tenant errors and a recovered
# snapshot on the restored topology (CI's timeline-smoke job).
timeline-smoke:
	bash scripts/timeline_smoke.sh

# Cluster smoke: boot a 3-node cluster plus a coordinator, read every
# tenant through the coordinator, kill the node owning the scripted
# timeline after its topology swap, and gate on the warm standby
# takeover via checkpoint handoff (CI's cluster-smoke job).
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Observability smoke: boot a 2-tenant fleet with a scripted
# flash-crowd tenant, gate on every telemetry family appearing on a
# live /metrics/prom scrape, ride the drift spike until the anomaly
# gauge and the degraded /healthz flip — then recover — and lint the
# live exposition with internal/obs's validator (CI's obs-smoke job).
obs-smoke:
	bash scripts/obs_smoke.sh

# Serving load test: drive a 2-tenant tmserve fleet with cmd/tmload's
# poll + SSE client mix for ~10s, gating on zero errors and the p99
# snapshot latency bound (CI's loadtest job).
loadtest:
	bash scripts/loadtest.sh

check: vet fmt build docs test-short
