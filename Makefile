GO ?= go

# Label under which `make bench-<suite>` records results in
# BENCH_<suite>.json (see docs/PERFORMANCE.md).
BENCH_LABEL ?= local

# The benchmark suites: one bench-<suite> / bench-diff-<suite> target pair
# each (the table below).
BENCH_SUITES = netsim suite select faults scale traffic

.PHONY: all build vet lint test race bench bench-diff $(BENCH_SUITES:%=bench-%) $(BENCH_SUITES:%=bench-diff-%) figures unreached examples clean

all: build vet test

build:
	$(GO) build ./...

# gofmt -l prints the unformatted files; any output fails the target.
# Analyzer fixtures under testdata/ are exempt. The list is kept in a
# variable and written to the standard error already open, which a
# redirected log then keeps whole (tee /dev/stderr would reopen, and so
# truncate, a log file).
vet:
	@unformatted="$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/gridlint ./...

# Domain-specific static analysis: wallclock, determinism and errcheck
# (`gridlint -list`); docs/STATIC_ANALYSIS.md explains them.
lint:
	$(GO) run ./cmd/gridlint ./...

test:
	$(GO) test ./... -timeout 600s

race:
	$(GO) test -race ./... -timeout 600s

bench: bench-netsim
	$(GO) test -bench=. -benchmem -timeout 1200s

# One row per suite: the -bench regexp, the packages holding the
# benchmarks, the go test timeout, and the BENCH_<suite>.json label
# bench-diff-<suite> gates against. docs/PERFORMANCE.md documents the
# workflow and each file's headline number.
#
#   netsim   the simulation core: allocator and route trees, the engine's
#            event queue, the NWS forecaster bank, a parallel-stream
#            transfer through slow start
#   suite    `gridbench -all` on the worker pool, sequential vs parallel
#   select   pull-per-query vs pinned snapshot, 1 and 8 selectors; one
#            hierarchical Rank on a 10-region world; the catalog build
#            (PlaceFiles) of select-churn and metro-traffic
#   faults   `gridbench -faults`: no-retry vs retry-same vs failover
#   scale    `gridbench -scale`: 20 to 200 sites, up to 10k hosts
#   traffic  `gridbench -traffic`: metro and 200-site request streams
netsim_BENCH     = Netsim|Reallocate|RouteTree|RoutePlanet|AddLinkBulk|ForecasterBank|EngineChurn|ParallelStreamRamp
netsim_PKGS      = . ./internal/netsim
netsim_TIMEOUT   = 600s
netsim_BASELINE  = certificate-2cpu
suite_BENCH      = GridbenchAll
suite_PKGS       = .
suite_TIMEOUT    = 1200s
suite_BASELINE   = pr21-tick-path-2cpu
select_BENCH     = SelectionThroughput|HierarchicalRank|CatalogPlace
select_PKGS      = .
select_TIMEOUT   = 600s
select_BASELINE  = candidate-ref-2cpu
faults_BENCH     = FaultsSweep
faults_PKGS      = .
faults_TIMEOUT   = 600s
faults_BASELINE  = pr20-one-session-2cpu
scale_BENCH      = ScaleSweep
scale_PKGS       = .
scale_TIMEOUT    = 1200s
scale_BASELINE   = pr28-core-routes-2cpu
traffic_BENCH    = TrafficSweep
traffic_PKGS     = .
traffic_TIMEOUT  = 3600s
traffic_BASELINE = pr47-receivers-2cpu

# Record a suite into BENCH_<suite>.json so future changes have a perf
# trajectory to compare against. Same label replaces, new labels append:
# run with BENCH_LABEL=<change-id> before and after an optimization.
$(BENCH_SUITES:%=bench-%): bench-%:
	$(GO) test -run='^$$' -bench='$($*_BENCH)' -benchmem -timeout $($*_TIMEOUT) $($*_PKGS) \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_$*.json

# Regression gates: re-run a suite and compare against its committed
# baseline without touching it; exit non-zero when any compared metric
# regresses by more than 15%. allocs/op is machine-independent; ns/op
# only means something on hardware comparable to the baseline's, so
# override BENCH_DIFF_METRICS locally as needed.
BENCH_DIFF_METRICS ?= allocs/op

bench-diff: $(BENCH_SUITES:%=bench-diff-%)

$(BENCH_SUITES:%=bench-diff-%): bench-diff-%:
	$(GO) test -run='^$$' -bench='$($*_BENCH)' -benchmem -timeout $($*_TIMEOUT) $($*_PKGS) \
		| $(GO) run ./cmd/benchjson -diff -against $($*_BASELINE) \
			-metrics '$(BENCH_DIFF_METRICS)' -out BENCH_$*.json

# Regenerate every paper artifact (Fig. 3, Fig. 4, Table 1, ablations,
# extensions) in the text form EXPERIMENTS.md quotes.
figures:
	$(GO) run ./cmd/gridbench -all

# Declared functions that no binary links (docs/STATIC_ANALYSIS.md, "What
# no binary reaches"): the module's text symbols in the packages' export
# archives, minus those linked into any main, inlining off throughout so
# every call is a symbol. Only names a source `func` declares are kept,
# which drops the compiler's wrappers: generic instances, interface and
# promoted-method stubs, pointer wrappers, closures. It prints only the
# names unreached.keep does not list with a reason, and the kept names
# that are no longer unreached, then their count; CI fails unless that is
# 0 (the list was made with Go 1.24; CI's Go 1.22 names are unverified).
# A method only its own package's tests read belongs in that package's
# export_test.go, which this list never sees.
unreached:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) list -export -gcflags=all=-l -f '{{.Export}}' ./... | xargs -n1 $(GO) tool nm \
		| awk '$$2 == "T" { print $$3 }' | sort -u > $$tmp/archived && \
	$(GO) build -gcflags=all=-l -o $$tmp/bin/ $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) && \
	for b in $$tmp/bin/*; do $(GO) tool nm $$b; done | awk '$$2 == "T" { print $$3 }' | sort -u > $$tmp/linked && \
	$(GO) list -f '{{$$p := .ImportPath}}{{range .GoFiles}}{{$$p}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... \
		| awk 'NF == 2 { while ((getline l < $$2) > 0) { \
			if (sub(/^func /, "", l) == 0) continue; r = ""; \
			if (l ~ /^\(/) { e = index(l, ")"); n = split(substr(l, 2, e - 2), f, " "); \
				r = f[n]; l = substr(l, e + 2); if (r ~ /\[/) continue; \
				r = r ~ /^\*/ ? "(" r ")." : r "." } \
			sub(/[[(].*/, "", l); print $$1 "." r l } close($$2) }' | sort -u > $$tmp/declared && \
	comm -23 $$tmp/archived $$tmp/linked | comm -12 - $$tmp/declared \
		| sed 's|^$(shell $(GO) list -m)/||' | LC_ALL=C sort > $$tmp/unreached && \
	grep -v '^#' unreached.keep | cut -f 1 | LC_ALL=C sort > $$tmp/kept && \
	LC_ALL=C comm -23 $$tmp/unreached $$tmp/kept > $$tmp/report && \
	LC_ALL=C comm -13 $$tmp/unreached $$tmp/kept | sed 's/^/kept, but a binary reaches it or nothing declares it: /' >> $$tmp/report && \
	cat $$tmp/report && \
	echo "$$(wc -l < $$tmp/report) entries outside unreached.keep ($$(wc -l < $$tmp/unreached) declared functions no binary reaches)"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/parallel-transfer
	$(GO) run ./examples/bioinformatics
	$(GO) run ./examples/thirdparty-striped
	$(GO) run ./examples/coallocation
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
