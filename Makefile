# Mirrors .github/workflows/ci.yml — `make ci` runs everything CI runs
# (except `lint`, which downloads its pinned tools and so needs network).

GO ?= go

# Pinned lint tooling — keep in sync with the `lint` job in ci.yml.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Coordinator address used by the `work` convenience target.
COORDINATOR ?= http://127.0.0.1:9090

.PHONY: build test mutants cli-smoke examples-smoke race chaos flake chaos-distrib bench bench-smoke fuzz-smoke bce portable fmt vet fidelitylint lint verify serve work e2e-distrib harden e2e-harden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The recorded mutants, testdata/mutants.json: one row per fault in the
# program that its tests must kill (file, exact old snippet, new snippet,
# package, -run pattern). The runner, selected by the mutants build tag,
# writes each mutated file to a temporary directory and applies it with
# `go test -overlay`, so the tree is never edited; it fails on a mutant that
# survives or does not build and prints each row's wall time. A row of a
# lane body (a *_amd64.s file) names its instruction set, avx2, avx512 or
# avx512fp16, as does a row of Go code reached only through such a body, and
# is skipped, saying so, on a machine that does not run that set
# (numerics.HasLanes, built under the same tag). Tier-1's TestMutantRows
# checks only that every row still applies.
mutants:
	$(GO) test -v -tags mutants -count=1 -timeout 30m -run '^TestMutants$$' .

# The one campaign binary end to end, four subcommands that finish in
# seconds: the study setup table, the Sec. IV validation at the paper's 60K
# injections (exits non-zero on any software-model mismatch), Table II, and a
# two-sample hardening loop (its JSON report on stdout). study leaves its
# (gitignored) study.manifest.json behind. Mirrors the `cli-smoke` step of
# CI's build + test job.
cli-smoke:
	$(GO) run ./cmd/fidelity study -setup
	$(GO) run ./cmd/fidelity validate
	$(GO) run ./cmd/fidelity table2
	$(GO) run ./cmd/fidelity harden -samples 2 -inputs 1

# The seven examples/ programs — the root package's only callers and
# DESIGN.md §3's route to Key Results 1 and 4 — each built, run (seconds in
# total) and held to one line of its output that states its result. Mirrors
# the `examples-smoke` step of CI's build + test job.
examples-smoke:
	@check() { \
		out=$$($(GO) run ./examples/$$1) || { echo "examples-smoke: $$1 exited non-zero"; exit 1; }; \
		echo "$$out" | grep -Eq -- "$$2" || { echo "examples-smoke: $$1: no output line matches '$$2'"; echo "$$out"; exit 1; }; \
		echo "ok  	examples/$$1"; \
	}; \
	check quickstart 'does NOT meet ASIL-D \(Key Result 1\)' && \
	check selfdriving 'with global control protected: FIT = [0-9.]+$$' && \
	check protect_global '^inception +[0-9.]+ +[0-9.]+ +still FAILS$$' && \
	check precision_sweep '^  INT8 +total FIT [0-9.]+ \| datapath\+local [0-9.]+$$' && \
	check value_bounding '^bounding removes [0-9.]+ FIT' && \
	check eyeriss_analysis '^16 +16 +\| RF=16 +RF=256 +RF=1 *$$' && \
	check memory_errors '^3 words across both buffers .* EXACT MATCH vs cycle sim$$'

# Race-detect the concurrency-critical packages: the sharded campaign engine,
# the injector, the fault models' batch recompute over nn's pooled scratch
# (faultmodel, and nn's ComputeNeurons differentials), nn's kernels over the
# row primitives (numerics' panel differentials) and the tensor ops, which
# every worker shares (nn and tensor themselves start no goroutine), the
# distributed fabric (coordinator + workers exchanging leases over loopback
# HTTP), and the cycle-level reference (one rtlsim.Reference serving
# injections from several goroutines). Slow: several minutes under -race.
# The package list lives here only: CI's race job runs this target.
race:
	$(GO) test -race -timeout 30m ./internal/campaign/... ./internal/inject/... ./internal/faultmodel/... ./internal/nn/... ./internal/numerics/... ./internal/tensor/... ./internal/distrib/... ./internal/rtlsim/...

# The chaos self-test harness: synthetic panics, hangs, and I/O errors
# injected into live campaigns; the supervisor must recover deterministically.
# The conformance suite's disruption cells (interrupt + resume, supervised
# panics and timeouts, one warm executor) hold each such campaign byte for
# byte to the oracle. Run twice under -race — the watchdog's
# abandoned-goroutine protocol and the resume paths are exactly where flakes
# would hide. CI's chaos job runs this target. A -run pattern here that
# selects nothing fails the root package's TestMakefileSelectsTests.
chaos:
	$(GO) test -race -timeout 30m -run 'Chaos' -count=2 ./internal/campaign/...
	$(GO) test -race -timeout 30m -run '^TestConformance$$/^($(CAMPAIGN_CELLS))$$' -count=2 ./internal/campaign/

# The tests that interrupt a live campaign or fire its watchdog from inside
# it — the conformance suite's disruption cells (interrupt + resume,
# supervised panics and timeouts, one warm executor, worker death,
# coordinator restart at an accepted report), the chaos watchdog (and the
# executor it abandons, never lent again), the transient checkpoint errors,
# the periodic save of a running shard and interrupt/resume in harden — 50 times at 1, 2 and 4 Ps each, beside a
# busy loop that holds one CPU: a test that races the engine instead of
# steering it from inside fails here. Then those two packages, nn and inject
# (the replay engine and its allocation ceilings), faultmodel (the seeded χ²
# test of the sampler) and numerics (the lane table on its go, avx2 and
# avx512 legs, which share the package's dispatch selectors), whole, 20 times
# in a row. A few minutes; not part of `make ci`.
FLAKE_TESTS := TestChaosWatchdogNeverLendsZombie|TestChaosCheckpointIOErrors|TestChaosPeriodicSave|TestHardenedInterruptResume
CAMPAIGN_CELLS := interrupt|supervised|warm-executor
FLEET_CELLS := worker-death|coordinator-restart
flake:
	@sh -c 'while :; do :; done' & hog=$$!; \
	trap "kill $$hog" EXIT; \
	$(GO) test -count=50 -cpu 1,2,4 -run '^($(FLAKE_TESTS))$$' ./internal/campaign/ ./internal/harden/ && \
	$(GO) test -count=50 -cpu 1,2,4 -run '^TestConformance$$/^($(CAMPAIGN_CELLS)|$(FLEET_CELLS))$$' ./internal/campaign/ ./internal/distrib/ && \
	$(GO) test -count=20 ./internal/campaign/ ./internal/distrib/ ./internal/nn/ ./internal/inject/ ./internal/faultmodel/ ./internal/numerics/

# The distribution-layer chaos + integrity suite (DESIGN.md §9): the
# conformance suite's chaos-transport cells (drops, delays, duplicates,
# truncation, bit corruption, 5xx bursts, across worker counts, planners and
# disruptions, must stay byte-identical to an in-process Study), result
# audits catching a lying worker, graceful drain, corrupted and
# parent-written state recovery, and the lease-table
# dedup/stale/audit/re-grant unit tests, and the lost-grant retries. Run twice under
# -race — retry and re-issue paths are exactly where flakes would hide. The
# -run regexps live here only: CI's chaos-distrib job runs this target.
chaos-distrib:
	$(GO) test -race -timeout 30m -count=2 -run 'TestDistribAudit|TestDistribDrain|TestDistribLostGrant|TestDistribStall|TestCoordinatorState|TestLeaseTable' ./internal/distrib/
	$(GO) test -race -timeout 30m -count=2 -run '^TestConformance$$/.*/^chaos-' ./internal/distrib/

# One iteration of every Benchmark* in the tree (the kernel, fault-model and
# cycle-model ones beside the code) — smoke, not measurement. The paper's
# tables and figures are `fidelity` subcommands (DESIGN.md §3); performance is
# measured by the repo benchmark: `go run ./benchmark`, and
# `go run ./benchmark compare` for parent-vs-change pairs.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# One iteration of the kernel benchmarks beside the code (internal/nn,
# internal/numerics, internal/faultmodel, internal/inject, internal/rtlsim) —
# seconds, so they cannot rot between `make bench` runs (numerics'
# BenchmarkLanes runs every case of every row of the lane table,
# BenchmarkLanes/<row>/<case>/{go,avx2}; nn's MaxPoolRegion, ActivationApply,
# … with the lanes off and on where they have lanes; Experiment, one replayed
# experiment per network and fault model, with its allocations).
# For numbers: go test -run '^$$' -bench . -count 5 ./internal/nn ./internal/numerics ./internal/faultmodel ./internal/inject ./internal/rtlsim
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/nn ./internal/numerics ./internal/faultmodel ./internal/inject ./internal/rtlsim

# Every native fuzz target for 5 s each, from its committed seeds: the six
# arithmetic ones (the five numerics targets, each the rows of the lane table
# that decode its bytes, held to the lane contract of DESIGN.md §7.1;
# Reference.Run vs Run),
# the three decoders a socket reaches (POST /v1/report, POST /v1/lease through
# Coordinator.Handler(), and the worker's GET /v1/campaign reply), the two a
# file reaches (the sealed envelope and checkpoint v3 restore), the shard
# checkpoint codec against encoding/json (DESIGN.md §9.5) and the
# //lint:allow parser. `go test -fuzz` takes one target at a time. Mirrors the
# `fuzz smoke` step of CI's bench-smoke job.
FUZZ_TARGETS := numerics:FuzzHalfRow numerics:FuzzHalfPanel numerics:FuzzMulAddPanel numerics:FuzzDiffRow numerics:FuzzExpRow rtlsim:FuzzReferenceRun distrib:FuzzReportBody distrib:FuzzLeaseBody distrib:FuzzHelloReply campaign:FuzzOpenSealedJSON campaign:FuzzLoadCheckpoint campaign:FuzzShardCheckpointJSON lint:FuzzAllowDirective
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s ./internal/$${t%%:*} || exit 1; \
	done

# The kernels' "bounds-check free" claim, checked: builds internal/nn,
# internal/numerics and internal/rtlsim with -gcflags=-d=ssa/check_bce and
# fails if the compiler kept a bounds check inside an innermost loop of
# kernels.go, of a row primitive in halfrow.go or floatrow.go, of the softmax's
# exponential row (exprow.go), of a row epilogue — the rectifier rows
# (activation.go), the residual add and the batch-norm rows (block.go) — of a
# pooling window (pool.go), or of the cycle-level reference's lean runner
# (rtlsim/engine.go) (cmd/bcecheck). The numerics exemptions are the lane
# dispatchers that loop once per chunk; cmd/bcecheck's TestNumericsExemptions
# derives them from the source.
bce:
	$(GO) run ./cmd/bcecheck

# The non-amd64 file set (internal/numerics/halfrow_noasm.go, a stub for every
# body halfrow_amd64.go declares — numerics' TestLaneRegistryComplete holds
# the two lists equal): cross-build everything and vet the two packages that
# see the split, tests included, so the portable side cannot rot on an
# amd64-only machine. `vet` below already checks the assembly's frames and
# argument offsets (asmdecl). Mirrors the `portable` step of CI's build + test
# job.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/numerics ./internal/nn

fmt:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "files need gofmt:"; echo "$$diff"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own invariant checkers (DESIGN.md §8): build the vettool from
# source — stdlib only, no network — and run it over every package. Fails on
# any unsuppressed finding, including malformed or unused //lint:allow
# comments.
fidelitylint:
	$(GO) build -o bin/fidelitylint ./cmd/fidelitylint
	$(GO) vet -vettool=$(CURDIR)/bin/fidelitylint ./...

# Static analysis + known-vulnerability scan, pinned so CI and local runs
# agree. fidelitylint runs first: it builds offline, so air-gapped runners
# still get invariant checking even when the network-fetched tools below are
# skipped. staticcheck/govulncheck download on first use (network required);
# when the tool itself cannot be fetched (offline/air-gapped runs), warn and
# skip rather than fail — real findings from a tool that did run still fail.
# Keep the error patterns in sync with the `lint` job in ci.yml.
OFFLINE_ERRS := dial tcp|no such host|i/o timeout|connection refused|TLS handshake timeout|proxyconnect
lint: fidelitylint
	@out=$$($(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>&1); st=$$?; \
	echo "$$out"; \
	if [ $$st -ne 0 ] && echo "$$out" | grep -Eq '$(OFFLINE_ERRS)'; then \
		echo "lint: WARNING: staticcheck unavailable offline, skipping"; \
	elif [ $$st -ne 0 ]; then exit $$st; fi
	@out=$$($(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... 2>&1); st=$$?; \
	echo "$$out"; \
	if [ $$st -ne 0 ] && echo "$$out" | grep -Eq '$(OFFLINE_ERRS)'; then \
		echo "lint: WARNING: govulncheck unavailable offline, skipping"; \
	elif [ $$st -ne 0 ]; then exit $$st; fi

# Run a distributed-campaign coordinator on :9090 with durable state; point
# one or more `make work` invocations (any machine) at it.
serve:
	$(GO) run ./cmd/fidelity serve -state fidelity.state.json $(SERVE_FLAGS)

# Run a worker against $(COORDINATOR).
work:
	$(GO) run ./cmd/fidelity work -coordinator $(COORDINATOR) $(WORK_FLAGS)

# The distributed-fabric end-to-end suite under -race: the conformance
# suite (byte-identical results across transports, worker counts, audits,
# killed-worker lease recovery, coordinator restart) and the TestDistrib*
# protocol tests.
e2e-distrib:
	$(GO) test -race -count=1 -run 'TestConformance|TestDistrib' ./internal/distrib/

# The closed hardening loop (README "Hardening", DESIGN.md §11): baseline
# campaign → golden-envelope clamps → re-campaign → recommendation, emitting
# a before/after FIT report as JSON. HARDEN_FLAGS overrides the defaults.
harden:
	$(GO) run ./cmd/fidelity harden $(HARDEN_FLAGS)

# The hardening end-to-end suite under -race: golden bit-identity with clamps
# installed, byte-identical hardened campaigns at 1/2/4 workers, replay vs the
# plain-forward oracle on the clamped network, interrupt/resume with the hardening checkpoint identity, and the
# full pipeline meeting the ASIL-D budget. Mirrors CI's harden-e2e job.
e2e-harden:
	$(GO) test -race -count=1 ./internal/harden/

# The fast pre-commit gate: format, vet, the repo's own invariant checkers
# (fidelitylint, bce), build, the portable cross-build, test, the CLI and
# examples smokes, kernel bench smoke. Everything here runs offline.
verify: fmt vet fidelitylint bce build portable test cli-smoke examples-smoke bench-smoke

ci: fmt vet fidelitylint bce build portable test mutants cli-smoke examples-smoke race chaos chaos-distrib bench fuzz-smoke
