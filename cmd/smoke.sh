#!/usr/bin/env bash
# End-to-end smoke test of the three deployment binaries on loopback, a few
# seconds in all: a sync session, an async session, a two-tier tree, the
# doctor on the sync chain, the length of `flserver -h`, and flags the
# subcommand does not take failing before anything is served.
#
# Usage: bash cmd/smoke.sh   (or: make cli)
set -euo pipefail

work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "cli smoke: $*" >&2
	for f in "$work"/*.log; do
		[ -e "$f" ] || continue
		echo "--- $f" >&2
		tail -n 20 "$f" >&2
	done
	exit 1
}

go build -o "$work/" ./cmd/flserver ./cmd/flclient ./cmd/flfleet
bin=$work

# bg NAME CMD...: start CMD in the background with its output in NAME.log.
bg() {
	local name=$1
	shift
	"$@" >"$work/$name.log" 2>&1 &
	pids+=($!)
	last=$!
}

# await NAME PID: wait (at most 60 s) for PID and require exit status 0.
await() {
	local name=$1 pid=$2 i
	for i in $(seq 600); do
		kill -0 "$pid" 2>/dev/null || break
		sleep 0.1
	done
	kill -0 "$pid" 2>/dev/null && fail "$name still running after 60 s"
	wait "$pid" || fail "$name exited with status $?"
}

port=$((20000 + RANDOM % 20000))

echo "cli smoke: sync session, 3 clients x 3 rounds"
addr=127.0.0.1:$port
bg server "$bin/flserver" -addr "$addr" -clients 3 -rounds 3 -warmup 1 -samples 300 \
	-checkpoint-dir "$work/sync-ckpt" -event-log "$work/sync-ckpt/events.jsonl"
server=$last
clients=()
for id in 0 1 2; do
	bg "client$id" "$bin/flclient" -addr "$addr" -id "$id" -clients 3 -samples 300 -retries 20 -retry-backoff 50ms
	clients+=("$last")
done
await server "$server"
for id in 0 1 2; do await "client$id" "${clients[$id]}"; done
grep -q '^final accuracy' "$work/server.log" || fail "sync server printed no result"

echo "cli smoke: doctor on the sync chain"
"$bin/flserver" doctor -checkpoint-dir "$work/sync-ckpt" -event-log "$work/sync-ckpt/events.jsonl" >"$work/doctor.log" 2>&1 ||
	fail "doctor found the sync chain inconsistent"

echo "cli smoke: async session, 2 clients, 4 versions"
addr=127.0.0.1:$((port + 1))
bg async "$bin/flserver" async -addr "$addr" -clients 2 -versions 4 -samples 300
server=$last
clients=()
for id in 0 1; do
	bg "async$id" "$bin/flclient" async -addr "$addr" -id "$id" -clients 2 -samples 300 -retries 20 -retry-backoff 50ms
	clients+=("$last")
done
await async "$server"
for id in 0 1; do await "async$id" "${clients[$id]}"; done
grep -q '^session default: versions=4' "$work/async.log" || fail "async server did not reach 4 versions"

echo "cli smoke: root + 2 edges + 16 fleet clients, dim 2000, 3 rounds"
boot=127.0.0.1:$((port + 2))
edges=127.0.0.1:$((port + 3))
bg root "$bin/flserver" root -addr "$boot" -edge-addr "$edges" -edges 2 -clients 16 -rounds 3 -dim 2000
root=$last
tier=()
for id in 0 1; do
	bg "edge$id" "$bin/flserver" edge -id "$id" -root-addr "$edges" -dim 2000 -retries 20
	tier+=("$last")
done
bg fleet "$bin/flfleet" edge -addr "$boot" -clients 16 -dim 2000 -nnz 100
tier+=("$last")
await root "$root"
await edge0 "${tier[0]}"
await edge1 "${tier[1]}"
await fleet "${tier[2]}"
grep -q '^root: 3 rounds' "$work/root.log" || fail "root did not complete 3 rounds"

echo "cli smoke: flserver -h"
n=$("$bin/flserver" -h 2>&1 | grep -c '^  -')
[ "$n" -le 30 ] || fail "flserver -h lists $n flags, more than 30"

echo "cli smoke: flags another engine reads fail before anything is served"
for cmd in "async -scenario /nonexistent.json -negotiate -assign-log /nonexistent/dir/a.jsonl -k 99 -straggler-timeout 1ms" \
	"root -scenario /nonexistent.json -shards 7 -fault-latency 1s -max-update-norm 3" \
	"edge -checkpoint-dir /nonexistent -shards 3"; do
	# shellcheck disable=SC2086 # the command is split on purpose
	if timeout 10 "$bin/flserver" $cmd >"$work/reject.log" 2>&1; then
		fail "flserver $cmd exited 0"
	fi
	grep -q 'flag provided but not defined' "$work/reject.log" || fail "flserver $cmd: no parse error"
done

echo "cli smoke: ok"
