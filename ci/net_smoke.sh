#!/usr/bin/env bash
# CI smoke for the network front end, run per readiness backend
# (--reactors 2 on both the default epoll backend and --force-poll):
# build release, start pclabel-netd on an ephemeral loopback port,
# round-trip register + query + /healthz through the real clients
# (examples/net_smoke.rs), then shut down via the shutdown op and verify
# a clean exit. Afterwards, replay an identical mixed request script
# (examples/net_replay.rs) against a one-reactor daemon and against the
# multi-reactor variants, and diff the captured responses: they must be
# byte-identical. The metrics pass also dumps the three GET /debug
# introspection routes (conns, memory, traces) and asserts the conn
# table, memory accounting and retained traces reflect the replayed
# session.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pclabel-net --bin pclabel-netd \
    --example net_smoke --example net_replay

# Starts a daemon with the given extra flags; sets $daemon_pid and
# $daemon_addr. The daemon prints "pclabel-netd: listening on ADDR (...)"
# once the socket is bound; poll for it to learn the ephemeral port.
start_daemon() {
    local out="$1"; shift
    timeout 60 ./target/release/pclabel-netd \
        --listen 127.0.0.1:0 --workers 2 --timeout-ms 1000 \
        --allow-remote-shutdown "$@" >"$out" &
    daemon_pid=$!
    daemon_addr=""
    for _ in $(seq 1 100); do
        daemon_addr=$(awk '/listening on/ {print $4; exit}' "$out")
        [ -n "$daemon_addr" ] && break
        sleep 0.1
    done
    if [ -z "$daemon_addr" ]; then
        echo "pclabel-netd never reported its address" >&2
        cat "$out" >&2
        return 1
    fi
}

trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# Two event loops, on both readiness backends: the default (epoll on
# Linux) and --force-poll (portable poll(2)). There is one accept path on
# both: loop 0 owns the listener and deals connections round-robin.
run_smoke() {
    start_daemon "$(mktemp)" "$@"
    ./target/release/examples/net_smoke "$daemon_addr"
    # The smoke client sent {"op":"shutdown"}; the daemon must exit 0 on
    # its own (the surrounding `timeout 60` turns a hang into a failure).
    wait "$daemon_pid"
    echo "net smoke ok ($* $daemon_addr)"
}
run_smoke --reactors 2
run_smoke --reactors 2 --force-poll

# Byte-identity across reactor counts and backends: one mixed
# framed+HTTP script, replayed against a fresh daemon per variant, must
# produce identical output. The reference is a single event loop; the
# variants are four loops on epoll and two loops on poll, both fed by
# loop 0's one accept path. (The in-process tests pin the single loop
# to the stdin/stdout serve loop.)
start_daemon "$(mktemp)" --reactors 1
./target/release/examples/net_replay "$daemon_addr" >replay_1.txt
wait "$daemon_pid"
start_daemon "$(mktemp)" --reactors 4
./target/release/examples/net_replay "$daemon_addr" >replay_4.txt
wait "$daemon_pid"
start_daemon "$(mktemp)" --reactors 2 --force-poll
./target/release/examples/net_replay "$daemon_addr" >replay_2_poll.txt
wait "$daemon_pid"
for variant in 4 2_poll; do
    if ! diff -u replay_1.txt "replay_$variant.txt"; then
        echo "1-reactor and $variant responses diverged" >&2
        exit 1
    fi
done
rm -f replay_1.txt replay_4.txt replay_2_poll.txt
echo "net smoke ok (1-reactor, 4-reactor and poll-backend responses byte-identical)"

# Telemetry: scrape /metrics at the end of a replay and assert the
# request counters account for every replayed request — 13 framed + 13
# HTTP + 1 /healthz = 27 (the shutdown op is intercepted before dispatch
# and /metrics itself is served without dispatching) — plus exposition
# format sanity: every sample line parses and no series repeats.
start_daemon "$(mktemp)" --reactors 2
PCLABEL_REPLAY_METRICS_OUT=metrics.txt PCLABEL_REPLAY_DEBUG_OUT=debug.txt \
    ./target/release/examples/net_replay "$daemon_addr" >/dev/null
wait "$daemon_pid"
awk '
    /^#/ || /^$/ { next }
    {
        if (NF < 2) { print "malformed sample line: " $0; exit 1 }
        series = $0; sub(/ [^ ]*$/, "", series)
        if (seen[series]++) { print "duplicate series: " series; exit 1 }
        if ($NF !~ /^[0-9.eE+-]+$/) { print "bad sample value: " $0; exit 1 }
    }
    /^pclabel_requests_total\{/ { total += $NF }
    END {
        if (total != 27) { print "request counter sum " total " != 27"; exit 1 }
    }
' metrics.txt || { cat metrics.txt >&2; exit 1; }
# Two client connections (framed + HTTP) were accepted.
grep -q '^pclabel_net_accepts_total 2$' metrics.txt
rm -f metrics.txt
echo "net smoke ok (metrics account for all 27 requests)"

# Introspection plane (dumped by the replay client while both of its
# connections were still open): the live connection table must show
# exactly that client pair, the deep memory accounting must be
# nonzero for the replayed dataset, and the retained-trace ring must
# hold the replayed queries.
conns=$(grep '^/debug/conns ' debug.txt)
echo "$conns" | grep -q '"open":2' \
    || { echo "conn table does not show the replay client pair: $conns" >&2; exit 1; }
echo "$conns" | grep -q '"protocol":"framed"' \
    || { echo "framed replay connection missing: $conns" >&2; exit 1; }
echo "$conns" | grep -q '"protocol":"http"' \
    || { echo "HTTP replay connection missing: $conns" >&2; exit 1; }
grep '^/debug/memory ' debug.txt | grep -qE '"total_bytes":[1-9]' \
    || { echo "memory accounting empty:" >&2; cat debug.txt >&2; exit 1; }
traces=$(grep '^/debug/traces?op=query ' debug.txt)
echo "$traces" | grep -q '"dataset":"census"' \
    || { echo "replayed query traces not retained: $traces" >&2; exit 1; }
echo "$traces" | grep -q '"request_id":' \
    || { echo "retained traces carry no request id: $traces" >&2; exit 1; }
rm -f debug.txt
echo "net smoke ok (debug endpoints expose conns, memory, traces)"
