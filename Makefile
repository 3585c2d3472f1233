GO ?= go

# Label under which `make bench` / `make bench-netsim` records results in
# BENCH_netsim.json (see docs/PERFORMANCE.md).
BENCH_LABEL ?= local

.PHONY: all build vet lint test race bench bench-netsim bench-suite bench-select bench-faults bench-scale bench-traffic bench-diff bench-diff-netsim bench-diff-suite bench-diff-select bench-diff-faults bench-diff-scale bench-diff-traffic figures examples clean

all: build vet test

build:
	$(GO) build ./...

# gofmt -l prints the unformatted files; any output fails the target.
# Analyzer fixtures under testdata/ are exempt.
vet:
	@test -z "$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l | tee /dev/stderr)"
	$(GO) vet ./...
	$(GO) run ./cmd/gridlint ./...

# Domain-specific static analysis (wallclock, determinism, seedflow,
# lockedcallback, enginesharing, errcheck, snapshotdiscipline) — see
# docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/gridlint ./...

test:
	$(GO) test ./... -timeout 600s

race:
	$(GO) test -race ./... -timeout 600s

bench: bench-netsim
	$(GO) test -bench=. -benchmem -timeout 1200s

# Record the simulation-core benchmarks — the allocator and route trees,
# the engine's event queue and the NWS forecaster bank — into
# BENCH_netsim.json so future changes have a perf trajectory to compare
# against. Same label replaces, new labels append: run with
# BENCH_LABEL=<change-id> before and after an optimization
# (docs/PERFORMANCE.md documents the workflow).
SIMCORE_BENCH = Netsim|Reallocate|RouteTree|AddLinkBulk|ForecasterBank|EngineChurn

bench-netsim:
	$(GO) test -run='^$$' -bench='$(SIMCORE_BENCH)' -benchmem -timeout 600s . ./internal/netsim \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_netsim.json

# Record the full-suite harness benchmark (the `gridbench -all` workload
# on the deterministic worker pool, sequential vs parallel) into
# BENCH_suite.json. The parallel/sequential wall-time ratio is the
# speedup the runner delivers on this machine; label meaningfully, e.g.
# BENCH_LABEL=ci-8core (docs/PERFORMANCE.md documents the workflow).
bench-suite:
	$(GO) test -run='^$$' -bench='GridbenchAll' -benchmem -timeout 1200s . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_suite.json

# Record the selection-throughput benchmark (pull-per-query vs pinned
# gridstate snapshot, 1 and 8 concurrent selectors) into
# BENCH_select.json. The snapshot/pull ratio is the pinned-view speedup
# on this machine (docs/PERFORMANCE.md documents the workflow).
bench-select:
	$(GO) test -run='^$$' -bench='SelectionThroughput' -benchmem -timeout 600s . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_select.json

# Regression gates: re-run the benchmarks and compare against the
# committed baselines without touching them; exit non-zero when any
# compared metric regresses by more than 15%. allocs/op is
# machine-independent; ns/op only means something on hardware comparable
# to the baseline's, so override BENCH_DIFF_METRICS locally as needed.
BENCH_DIFF_METRICS ?= allocs/op

bench-diff: bench-diff-netsim bench-diff-suite bench-diff-select bench-diff-faults bench-diff-scale bench-diff-traffic

bench-diff-netsim:
	$(GO) test -run='^$$' -bench='$(SIMCORE_BENCH)' -benchmem -timeout 600s . ./internal/netsim \
		| $(GO) run ./cmd/benchjson -diff -against pr21-tick-path-2cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_netsim.json

# Gate the full-suite harness benchmark against its committed baseline
# the same way (GridbenchAll sequential vs parallel, BENCH_suite.json).
bench-diff-suite:
	$(GO) test -run='^$$' -bench='GridbenchAll' -benchmem -timeout 1200s . \
		| $(GO) run ./cmd/benchjson -diff -against pr21-tick-path-2cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_suite.json

bench-diff-select:
	$(GO) test -run='^$$' -bench='SelectionThroughput' -benchmem -timeout 600s . \
		| $(GO) run ./cmd/benchjson -diff -against pr19-dense-catalog-2cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_select.json

# Record the fault-tolerance sweep (the `gridbench -faults` workload:
# no-retry vs retry-same vs failover-reselect under rising fault
# intensity) into BENCH_faults.json. The per-policy completed counts at
# the top intensity are the headline (docs/PERFORMANCE.md documents the
# workflow).
bench-faults:
	$(GO) test -run='^$$' -bench='FaultsSweep' -benchmem -timeout 600s . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_faults.json

# Record the planet-scale sweep (the `gridbench -scale` workload: 20 to
# 200 sites, 400 to 10k hosts, 10k- to million-entry catalogs through
# route trees, the sharded catalog and hierarchical selection) into
# BENCH_scale.json. The 200-site row's dijkstra-savings-x is the
# headline: per-pair Dijkstra runs each tree sweep replaced
# (docs/PERFORMANCE.md documents the workflow).
bench-scale:
	$(GO) test -run='^$$' -bench='ScaleSweep' -benchmem -timeout 1200s . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_scale.json

bench-diff-faults:
	$(GO) test -run='^$$' -bench='FaultsSweep' -benchmem -timeout 600s . \
		| $(GO) run ./cmd/benchjson -diff -against pr20-one-session-2cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_faults.json

bench-diff-scale:
	$(GO) test -run='^$$' -bench='ScaleSweep' -benchmem -timeout 1200s . \
		| $(GO) run ./cmd/benchjson -diff -against container-1cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_scale.json

# Record the traffic-plane sweep (the `gridbench -traffic` workload:
# Zipf/diurnal request streams on the metro and 200-site worlds through
# the popularity-driven replication loop and simxfer.Submit) into
# BENCH_traffic.json. The planet row's submitted count and p99 are the
# headline (docs/PERFORMANCE.md documents the workflow).
bench-traffic:
	$(GO) test -run='^$$' -bench='TrafficSweep' -benchmem -timeout 3600s . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_traffic.json

bench-diff-traffic:
	$(GO) test -run='^$$' -bench='TrafficSweep' -benchmem -timeout 3600s . \
		| $(GO) run ./cmd/benchjson -diff -against pr20-one-session-2cpu \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_traffic.json

# Regenerate every paper artifact (Fig. 3, Fig. 4, Table 1, ablations,
# extensions) in the text form EXPERIMENTS.md quotes.
figures:
	$(GO) run ./cmd/gridbench -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/parallel-transfer
	$(GO) run ./examples/bioinformatics
	$(GO) run ./examples/thirdparty-striped
	$(GO) run ./examples/coallocation
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
