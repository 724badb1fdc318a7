# Developer entry points. Everything is stdlib-only Go; `make check` is the
# gate every change must pass (build + vet + full tests + race detector on
# the concurrency-bearing packages).

GO ?= go

.PHONY: check lint vet build test race chaos fuzz cover fleet cli

check: lint build test race

# Static gate: vet plus gofmt as a *failing* check — gofmt -l prints the
# offending files and the target exits non-zero if any exist. The arm64
# cross-build keeps gemm_noasm.go tracking the amd64 assembly bindings: the
# paper's clients are ARM boards, and nothing else in CI compiles for them.
# The import guard is an allowlist of the non-test files that may import
# encoding/gob: the one place a snapshot's meta section is encoded (and the
# framed file bench/ still measures); it touches no socket. deadexport fails
# on an exported name under internal/ that no non-test file references
# (its allowlist: cmd/internal/deadexport/allowlist.txt).
GOB_IMPORTERS := internal/checkpoint/checkpoint.go
# Two more allowlists of the same kind keep the connection plane single
# (DESIGN.md §Connection plane). A listener is accepted on in the roster,
# in the fleet load generator (its reader→worker pipeline is its own) and
# in the tests' accounting wrapper, nowhere else; and a redial wait is
# slept only in rpc.Redial — nobody else can compute one, because nobody
# else builds a RetryBackoff.
ACCEPT_CALLERS := internal/leakcheck/leakcheck.go internal/rpc/fleet.go internal/rpc/roster.go
BACKOFF_USERS := internal/rpc/backoff.go

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor/
	$(GO) run ./cmd/internal/deadexport . cmd/internal/deadexport/allowlist.txt
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(GOB_IMPORTERS) " ]; then echo "encoding/gob importers: $$got(want: $(GOB_IMPORTERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' '\.Accept()' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(ACCEPT_CALLERS) " ]; then echo "accept loops: $$got(want: $(ACCEPT_CALLERS))"; exit 1; fi
	@got=$$(grep -rl --include='*.go' --exclude='*_test.go' 'NewRetryBackoff(' . | sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$got" != "$(BACKOFF_USERS) " ]; then echo "redial loops (NewRetryBackoff callers): $$got(want: $(BACKOFF_USERS))"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that spawn goroutines (parallel GEMM, parallel evaluation,
# parallel client rounds, the concurrent RPC round engine and its chaos
# suite, the sharded streaming aggregation tree) plus the crash-safety
# layer and the shared-registry observability layer under the race
# detector.
race:
	$(GO) test -race ./internal/fl/... ./internal/nn/... ./internal/tensor/... ./internal/rpc/... ./internal/checkpoint/... ./internal/obs/... ./internal/shard/... ./internal/compress/... ./internal/scenario/... ./internal/edge/... ./internal/session/...

# The full-session fault-injection suite (stragglers, partitions, drops,
# kill-and-restart resume) plus the two-tier edge-kill/reroute suite under
# the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/rpc/ ./internal/edge/

# Short fuzzing smoke over the attack surfaces: corrupted/truncated wire
# streams, envelope payloads and checkpoint snapshots must error, never
# panic, an accepted sparse frame or envelope must survive a re-encode bit
# for bit,
# the top-k select must emit what a sort would for any bit pattern, and
# the sharded streaming aggregator must agree with the reference fold
# under adversarial updates. CI-friendly 10s budgets;
# raise -fuzztime locally for a deeper run.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzSparseBinary -fuzztime 10s ./internal/compress/
	$(GO) test -run xxx -fuzz FuzzSelectTopK -fuzztime 10s ./internal/compress/
	$(GO) test -run xxx -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run xxx -fuzz FuzzDeltaDecode -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run xxx -fuzz FuzzShardMerge -fuzztime 10s ./internal/shard/
	$(GO) test -run xxx -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/

# Coverage floors on the scenario engine and the models it composes, plus
# the wire codecs, the sharded aggregation tree and the two-tier edge
# federation — the protocol/aggregation core every session rides on.
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
	check_pkg checkpoint 75

# Fleet-scale aggregation smoke: a small in-process run of the load
# harness. The tracked numbers are bench/'s fleet_ingest and tree_ingest.
fleet:
	$(GO) run ./cmd/flfleet -clients 500 -shards 4 -rounds 3 -dim 5000 -nnz 250

# The deployment binaries end to end on loopback (a few seconds): a sync
# session, flserver async + flclient async, flserver root + two edges +
# flfleet edge, the doctor on the sync chain, `flserver -h` at most 30
# flags, and flags a subcommand does not take failing before it serves.
cli:
	bash cmd/smoke.sh
