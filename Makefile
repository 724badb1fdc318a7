# Developer entry points. Everything is stdlib-only Go; `make check` is the
# gate every change must pass (build + vet + full tests + race detector on
# the concurrency-bearing packages).

GO ?= go

.PHONY: check lint vet build test race chaos fuzz cover fleet cli

check: lint build test race

# Static gate: vet plus gofmt as a *failing* check — gofmt -l prints the
# offending files and the target exits non-zero if any exist. The arm64
# cross-build and vet keep gemm_noasm.go and elem_noasm.go tracking the
# amd64 assembly bindings: the paper's clients are ARM boards, and nothing
# else in CI compiles for them. The s390x cross-build keeps the sparse
# wire's big-endian element loops compiling (a little-endian host moves
# the runs as block copies). The arm64 disassembly of the portable GEMM
# tile fails unless its sixteen multiply-adds are fused FMADDS
# instructions with no call to the fma32 emulation left
# (tensor/fma32_arm64.go): a refactor that breaks the fusion fails here,
# not on a board. The opposite holds for the Box-Muller transform and the
# synthetic renderers (DESIGN.md §Synthetic data): every normal and pixel
# must have amd64's bits on the boards, so the arm64 disassembly of
# internal/stats and of renderDigit and SynthCIFAR fails on any fused
# multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD) — a product someone
# forgot to round with float64(…).
# The import guard is an allowlist of the non-test files that may import
# encoding/gob: the one place a snapshot's meta section is encoded (and the
# framed file bench/ still measures); it touches no socket. deadexport fails
# on an exported name under internal/ that no non-test file references
# (its allowlist: cmd/internal/deadexport/allowlist.txt).
GOB_IMPORTERS := internal/checkpoint/checkpoint.go
# Two more allowlists of the same kind keep the connection plane single
# (DESIGN.md §Connection plane). A listener is accepted on in the roster,
# in the fleet load generator (its readers fold what they read) and
# in the tests' accounting wrapper, nowhere else; and a redial wait is
# slept only in rpc.Redial — nobody else can compute one, because nobody
# else builds a RetryBackoff.
ACCEPT_CALLERS := internal/leakcheck/leakcheck.go internal/rpc/fleet.go internal/rpc/roster.go
BACKOFF_USERS := internal/rpc/backoff.go
# A wait on a condition blocks on the event that changes it (the root's
# change signal, DESIGN.md §Edge federation), never on a sleep-and-poll
# loop. time.Sleep is named only by the redial wait and the tests' leak
# check; a paced link waits on a timer that Close and the deadline cut
# short.
SLEEP_CALLERS := internal/leakcheck/leakcheck.go internal/rpc/backoff.go
# The round decision and the round apply exist once (DESIGN.md §Selection
# and the apply sites): no non-test file under internal/ or cmd/ but
# core's planner calls Algorithm 1 (PlanRound), the negotiator's Assign or
# a score multiplier (ScoreMult) — the wire server hands its scores to
# core.SyncPlanner.Decide — and none outside internal/fl and
# internal/shard adds a folded partial into a model (AddTo): every engine
# applies its round through fl's aggregators. The one other AddTo caller
# is core's AsyncApply, which adds a single update.
PLAN_CALLERS := internal/core/adafl.go
APPLY_CALLERS := internal/core/adafl.go
# The lockstep collect exists once (DESIGN.md §Connection plane): no
# non-test internal/rpc or internal/edge file but the collect step
# (rpc.Collect) and the fleet load generator, whose readers fold what
# they read, calls a tree's Ingest or Finish — the flat server and the
# edge gather, fold and judge a round through the one step.
INGEST_CALLERS := internal/rpc/fleet.go internal/rpc/lockstep.go
# The shard tree folds in the goroutine that ingests (DESIGN.md §Sharded
# aggregation): no non-test internal/shard file has a go statement or
# names a channel type. The list of files allowed to is empty.
SHARD_CONCURRENCY :=
# And one more keeps the GEMM at one precision (DESIGN.md §Precision): no
# non-test internal/tensor/gemm*.go file names float64 and the assembly
# tile has no packed-double FMA, so a float64 GEMM cannot creep back beside
# the float32 one. The list of files allowed to is empty. The elementwise
# kernels (elem*.go, elem_amd64.s) sit outside the guard: converting between
# float64 and float32 is their job.
F64_GEMM :=
# The tensor kernels' assembly is VEX/EVEX only where it touches a vector
# register (DESIGN.md §GEMM kernel, "Two layer loops"): a legacy SSE
# instruction writing an X register after an AVX write to the upper lanes
# stalls on the state transition (one `MOVQ AX, X8` in the pool kernel's
# loop makes it about 20× slower). Any mnemonic not starting with V whose
# destination is an X register fails the lint; write VMOVQ, VMOVD, VPXOR, ….
SSE_IN_AVX := internal/tensor/*_amd64.s
# Code grows only in the open (ROADMAP items 9 and 26): every package
# under internal/ and cmd/ (testdata aside) has a budget of non-test lines,
# counted with wc -l, in LINE_BUDGET, and so has the assembly under both,
# as one total on the line named *.s. A package the file does not list, a
# package over its budget and assembly over its total fail the lint until
# the file says otherwise, in the same diff.
LINE_BUDGET := cmd/internal/linebudget.txt

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor/
	GOARCH=s390x $(GO) build ./... && GOARCH=s390x $(GO) vet ./internal/compress/ ./internal/tensor/
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOARCH=arm64 $(GO) build -o "$$dir/flclient" ./cmd/flclient && \
	$(GO) tool objdump -s 'tensor\.gemmTileGo$$' "$$dir/flclient" > "$$dir/tile.txt" && \
	calls=$$(grep -c 'CALL .*tensor\.fma32' "$$dir/tile.txt"; true) && \
	fused=$$(grep -c 'FMADDS' "$$dir/tile.txt"; true) && \
	if [ "$$calls" -ne 0 ] || [ "$$fused" -lt 16 ]; then \
		echo "arm64 tensor.gemmTileGo: $$calls calls to fma32 and $$fused FMADDS (want 0 and at least 16)"; exit 1; \
	fi
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOARCH=arm64 $(GO) build -o "$$dir/flbench" ./cmd/flbench && \
	$(GO) tool objdump -s 'internal/stats\.|internal/dataset\.(renderDigit|SynthCIFAR)' "$$dir/flbench" > "$$dir/normal.txt" && \
	funcs=$$(grep -cE '^TEXT .*(stats\.\(\*RNG\)\.Norm|dataset\.renderDigit|dataset\.SynthCIFAR\.func1)\(SB\)' "$$dir/normal.txt"; true) && \
	fused=$$(grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$$dir/normal.txt"; true) && \
	if [ "$$funcs" -ne 3 ] || [ -n "$$fused" ]; then \
		echo "arm64 Box-Muller and renderers: $$funcs of Norm, renderDigit, SynthCIFAR.func1 found (want 3), fused multiply-adds:"; echo "$$fused"; exit 1; \
	fi
	$(GO) run ./cmd/internal/deadexport . cmd/internal/deadexport/allowlist.txt
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(GOB_IMPORTERS) " ]; then echo "encoding/gob importers: $$got(want: $(GOB_IMPORTERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' '\.Accept()' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(ACCEPT_CALLERS) " ]; then echo "accept loops: $$got(want: $(ACCEPT_CALLERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' 'NewRetryBackoff(' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(BACKOFF_USERS) " ]; then echo "redial loops (NewRetryBackoff callers): $$got(want: $(BACKOFF_USERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' 'time\.Sleep' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(SLEEP_CALLERS) " ]; then echo "time.Sleep in: $$got(want: $(SLEEP_CALLERS))"; exit 1; fi
	@got=$$(grep -rlE --include='*.go' --exclude='*_test.go' '\.(PlanRound|Assign|ScoreMult)\(' internal cmd | sort | tr '\n' ' '); \
	if [ "$$got" != "$(PLAN_CALLERS) " ]; then echo "round decision (PlanRound, Assign, ScoreMult) called in: $$got(want: $(PLAN_CALLERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' '\.AddTo(' internal cmd | grep -vE '^internal/(fl|shard)/' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(APPLY_CALLERS) " ]; then echo "AddTo outside internal/fl and internal/shard in: $$got(want: $(APPLY_CALLERS))"; exit 1; fi
	@got=$$(grep -rlE --include='*.go' --exclude='*_test.go' '\.(Ingest|Finish)\(' internal/rpc internal/edge | sort | tr '\n' ' '); \
	if [ "$$got" != "$(INGEST_CALLERS) " ]; then echo "tree Ingest or Finish in internal/rpc, internal/edge: $$got(want: $(INGEST_CALLERS))"; exit 1; fi
	@got=$$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]|(^|[^[:alnum:]_])chan([^[:alnum:]_]|$$)' internal/shard | sort | tr '\n' ' '); \
	if [ "$$got" != "$(SHARD_CONCURRENCY)" ]; then echo "go statement or channel in the shard tree: $$got(want none)"; exit 1; fi
	@got=$$(grep -lE --exclude='*_test.go' 'float64|FMADD[0-9]+PD' internal/tensor/gemm*.go internal/tensor/gemm_amd64.s | sort -u | tr '\n' ' '); \
	if [ "$$got" != "$(F64_GEMM)" ]; then echo "float64 GEMM code in: $$got(want none)"; exit 1; fi
	@got=$$(grep -nE '^[[:space:]]*[A-UW-Z][A-Z0-9]*[[:space:]][^/]*,[[:space:]]*X([0-9]|1[0-5])[[:space:]]*(//.*)?$$' $(SSE_IN_AVX)); \
	if [ -n "$$got" ]; then echo "legacy SSE instruction writing an X register (use its VEX form):"; echo "$$got"; exit 1; fi
	@for pkg in $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do \
		grep -q "^$$pkg " $(LINE_BUDGET) || { echo "$$pkg: no line budget in $(LINE_BUDGET)"; exit 1; }; \
	done
	@grep -Ev '^(#|$$)' $(LINE_BUDGET) | while read -r pkg budget; do \
		if [ "$$pkg" = '*.s' ]; then got=$$(cat $$(find internal cmd -name '*.s') | wc -l); \
		else got=$$(cat $$(ls $$pkg/*.go | grep -v '_test\.go$$') | wc -l); fi; \
		if [ "$$got" -gt "$$budget" ]; then echo "$$pkg: $$got non-test lines, over its budget of $$budget ($(LINE_BUDGET))"; exit 1; fi; \
	done

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that spawn goroutines (parallel GEMM, parallel evaluation,
# parallel client rounds, the concurrent RPC round engine and its chaos
# suite, the chunked synthetic-data renderer and the RNG it positions) or
# are fed from many (the shard tree's striped ingest), plus the
# crash-safety layer and the shared-registry observability layer under
# the race detector.
race:
	$(GO) test -race ./internal/fl/... ./internal/nn/... ./internal/tensor/... ./internal/rpc/... ./internal/checkpoint/... ./internal/obs/... ./internal/shard/... ./internal/compress/... ./internal/scenario/... ./internal/edge/... ./internal/session/... ./internal/dataset/... ./internal/stats/...

# The full-session fault-injection suite (stragglers, partitions, drops,
# kill-and-restart resume) plus the two-tier edge-kill/reroute suite under
# the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/rpc/ ./internal/edge/

# Short fuzzing smoke over the attack surfaces: corrupted/truncated wire
# streams, envelope payloads and snapshot files must error, never
# panic, an accepted sparse frame or envelope must survive a re-encode bit
# for bit, a coded section read piece by piece (FuzzReadSupport) must be
# the one the whole-frame decoder reads,
# the top-k select must emit what a sort would for any bit pattern, and
# the sharded streaming aggregator must agree with the reference fold
# under adversarial updates. CI-friendly 10s budgets;
# raise -fuzztime locally for a deeper run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzSparseBinary -fuzztime 10s ./internal/compress/
	$(GO) test -run xxx -fuzz FuzzReadSupport -fuzztime 10s ./internal/compress/
	$(GO) test -run xxx -fuzz FuzzSelectTopK -fuzztime 10s ./internal/compress/
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run xxx -fuzz FuzzShardMerge -fuzztime 10s ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/

# Coverage floors on the scenario engine and the models it composes, plus
# the wire codecs, the sharded aggregation tree and the two-tier edge
# federation — the protocol/aggregation core every session rides on — the
# synthetic data and RNG every run's bits start from, and the layers and
# kernels every client step runs.
# Floors sit a few points under current numbers to absorb benign drift.
cover:
	@set -e; \
	check_pkg() { \
		pct=$$($(GO) test -cover ./internal/$$1/ | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "internal/$$1: tests failed or no coverage output"; exit 1; fi; \
		echo "internal/$$1: $$pct% (floor $$2%)"; \
		if ! awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p+0 >= f+0) }'; then \
			echo "internal/$$1: coverage $$pct% is below the $$2% floor"; exit 1; \
		fi; \
	}; \
	check_pkg scenario 85; \
	check_pkg device 90; \
	check_pkg netsim 85; \
	check_pkg rpc 85; \
	check_pkg shard 76; \
	check_pkg edge 80; \
	check_pkg compress 85; \
	check_pkg session 80; \
	check_pkg checkpoint 75; \
	check_pkg dataset 90; \
	check_pkg stats 95; \
	check_pkg nn 92; \
	check_pkg tensor 93

# Fleet-scale aggregation smoke: a small in-process run of the load
# harness. The tracked numbers are bench/'s fleet_ingest and tree_ingest.
fleet:
	$(GO) run ./cmd/flfleet -clients 500 -rounds 3 -dim 5000 -nnz 250

# The deployment binaries end to end on loopback (a few seconds): a sync
# session of six clients, twelve rounds and 1200 samples each, flserver
# async + flclient async, flserver root + two edges + flfleet edge, the
# doctor on the sync checkpoint, `flserver -h` at most 20 flags, and flags
# a subcommand does not take failing before it serves.
cli:
	bash cmd/smoke.sh
