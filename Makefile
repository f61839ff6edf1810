# Developer entry points. The repo is plain `go build ./...`-able; these
# targets just bundle the checks CI and reviewers expect.

GO ?= go

.PHONY: all build test race fmt fuzz-smoke lint vuln docs-check bench bench-e2e bench-e2e-compare bench-pairs bench-layers

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the full static gate: the docs link/anchor checker, the vuln sweep
# (explicit go vet passes + race soak), then cocg-lint — the repo-specific
# determinism & correctness analyzers (see docs/STATIC_ANALYSIS.md),
# including the //cocg:hot escape gate. It exits non-zero on any finding.
lint: docs-check vuln
	$(GO) run ./cmd/cocg-lint ./...

# vuln is the concurrency/correctness sweep: go vet with every standard pass
# explicitly enabled — listed out so a toolchain that re-scopes its default
# set cannot silently shrink the gate — plus a race-detector soak over the
# two goroutine-heavy serving tiers, run twice to shake out order-dependent
# interleavings.
vuln:
	$(GO) vet -appends -asmdecl -assign -atomic -bools -buildtag -cgocall \
		-composites -copylocks -defers -directive -errorsas -framepointer \
		-httpresponse -ifaceassert -loopclosure -lostcancel -nilfunc -printf \
		-shift -sigchanyzer -slog -stdmethods -stdversion -stringintconv \
		-structtag -testinggoroutine -tests -timeformat -unmarshal \
		-unreachable -unsafeptr -unusedresult ./...
	$(GO) test -race -count=2 ./internal/streaming/... ./internal/coordinator/...

# docs-check fails when any relative markdown link in README.md,
# EXPERIMENTS.md, DESIGN.md, ROADMAP.md or docs/ points at a file that no
# longer exists, or a backticked Test…/Benchmark…/Fuzz… name there is not a
# prefix of any test func — the docs must not drift from the tree they
# describe.
docs-check:
	$(GO) run ./cmd/cocg-docscheck

# race is the concurrency gate: formatting must be clean, the analyzers must
# be silent, and the full suite (including the experiment harness's
# worker-count-invariance tests and the serving tiers' soaks) must pass under
# the race detector. A cluster ticks on one goroutine, so the
# simulation core has no fan-out for it to check.
race: fmt lint
	$(GO) test -race ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# fuzz-smoke runs every Fuzz* target in the tree for FUZZTIME each (go test
# takes one fuzz target per invocation, so the recipe walks them): the wire
# codec, StepBulk, the fused tick against the general one
# (FuzzTickEquivalence, one server, serial), the scheduler's run merge and
# one-division verdict, lazyrand's stream against math/rand, the model loader
# (FuzzLoadModel), the tree trainer against its legacy oracle
# (FuzzFitMatchesLegacy) and the bounded K-means against the plain Lloyd loop
# (FuzzKMeansMatchesLloyd), none of which any other recipe runs beyond their
# seed corpus.
FUZZTIME ?= 5s
fuzz-smoke:
	@grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' . | xargs -n1 dirname | sort -u | while read pkg; do \
		for f in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$pkg/*_test.go | sed 's/^func //'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-e2e runs the end-to-end benchmark (bench/cocgbench: four workloads,
# seven end-to-end metrics untraced plus the traced per-layer budget, ~3.5
# min) and writes the document to BENCH_E2E.json — the one record a
# performance claim is judged on (see bench/README.md). bench-e2e-compare
# judges a new document against an old one, metric by metric against the
# bounds in BENCHMARK.json, and exits non-zero on a regression:
#   make bench-e2e E2E_OUT=/tmp/new.json
#   make bench-e2e-compare OLD=BENCH_E2E.json NEW=/tmp/new.json
E2E_OUT ?= BENCH_E2E.json
bench-e2e:
	$(GO) run ./bench/cocgbench -out $(E2E_OUT)

bench-e2e-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-e2e-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./bench/cocgbench -compare $(OLD) $(NEW)

# bench-pairs is the paired measurement a performance claim needs: N
# alternating parent/change runs of one workload in driver mode, seeds 1, 2, 3
# in rotation, each tree building its own binary (scripts/bench-pairs.sh; the
# parent's files are extracted under .bench_build/). It prints, per end-to-end
# metric, medians, quartiles, pair ratios and pairs won, and whether the output
# digests agreed:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=fleet-cocg N=10
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<rev> WORKLOAD=<name> [N=10]"; exit 2; }
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(N)

# bench-layers runs the per-layer micro-benchmarks once, with -benchmem, and
# prints go test's own table: the placement scan, fleet summary, one
# saturated fleet frame at 128 and 1024 servers and that 1024-server fleet's
# placement round (Score calls and ns per round), the prediction and
# clustering kernels, the whole offline pass (TrainSystem: the end-to-end
# benchmark's set-up, one game at a time; TrainSystemWorkersMax: games
# fanned out), the serving path (codec, tick walk), routing, the
# simulation core, and model training (ForestTrain, GBDTTrain) beside the
# legacy trainer the tests keep as its oracle (*FitLegacy), and the two
# shared kernels under all of them — vector folds and short-lived generator
# seeding.
# Prediction is the per-call Predict alone: the pointer-walk and batch twins
# are gone. Nothing is recorded or compared —
# bench/cocgbench (bench-e2e above) is the judge of a performance claim; these
# numbers say where inside a layer the time goes. BENCH_PR3.json …
# BENCH_PR10.json are the per-layer records earlier PRs took and stay as
# history only.
bench-layers:
	$(GO) test -run '^$$' -benchmem \
		-bench 'FleetPlacement|FleetFrame|FleetRound|Evaluate|FleetLoad|ClusterLoadFullScan|Predict|KMeans|TrainSystem|Forecast|WireFrameBatch|StreamTick|FleetRoute|ServerTick|(DTC|RF|GBDT)Fit|(Forest|GBDT)Train|NewPlayerSession|SourceSeedAndDraw|VectorFold' \
		. ./internal/...
