#!/usr/bin/env bash
# CI soak gate for the event-driven reactor: with W workers, park W + 4
# idle keep-alive connections on the daemon and assert a fresh client
# still completes a register + query round-trip within 2 seconds — the
# reactor holds workers per request, so idle connections must never
# starve a newcomer. The soak runs with two event loops (--reactors 2)
# on both readiness backends — the default epoll and --force-poll, with
# the one accept path on both (loop 0 accepts and deals connections
# round-robin) — since the gauges asserted below must sum correctly
# across loops either way. The daemon runs with a tiny --retained-traces
# ring, and the soak's request storm must leave both trace rings
# saturated at exactly that bound (retention stays bounded under load).
set -euo pipefail
cd "$(dirname "$0")/.."

WORKERS=2
IDLE=$((WORKERS + 4))
DEADLINE_MS=2000
TRACE_RING=4

cargo build --release -p pclabel-net --bin pclabel-netd --example net_soak

trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

for backend_flags in "" "--force-poll"; do
    out=$(mktemp)
    # shellcheck disable=SC2086  # $backend_flags is intentionally split
    timeout 60 ./target/release/pclabel-netd \
        --listen 127.0.0.1:0 --workers "$WORKERS" \
        --reactors 2 $backend_flags \
        --timeout-ms 5000 --retained-traces "$TRACE_RING" \
        --allow-remote-shutdown >"$out" &
    pid=$!

    addr=""
    for _ in $(seq 1 100); do
        addr=$(awk '/listening on/ {print $4; exit}' "$out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "pclabel-netd never reported its address" >&2
        cat "$out" >&2
        exit 1
    fi

    soak_out=$(mktemp)
    ./target/release/examples/net_soak "$addr" "$IDLE" "$DEADLINE_MS" | tee "$soak_out"

    # Telemetry gauges (from the {"op":"server_stats"} wire op): the idle
    # fleet plus the fresh client are all open — summed across both event
    # loops — nothing is parked waiting for a worker, and nothing was
    # evicted or refused.
    expected="gauges open_connections=$((IDLE + 1)) parked_jobs=0 evictions=0 overloaded=0"
    if ! grep -q "$expected" "$soak_out"; then
        echo "unexpected transport gauges (wanted: $expected):" >&2
        cat "$soak_out" >&2
        exit 1
    fi

    # Trace retention: the soak pushed 2 × IDLE health requests through
    # the daemon, three times the ring capacity, so both retained-trace
    # rings must have saturated at exactly the bound — never grown past
    # it.
    expected="traces retained_per_op=$TRACE_RING health_requests=$((2 * IDLE)) recent=$TRACE_RING slowest=$TRACE_RING"
    if ! grep -q "$expected" "$soak_out"; then
        echo "trace rings not saturated at their bound (wanted: $expected):" >&2
        cat "$soak_out" >&2
        exit 1
    fi

    # The soak client sent {"op":"shutdown"}; the daemon must exit
    # cleanly, draining the parked connections.
    wait "$pid"
    echo "net soak ok ($IDLE idle connections vs $WORKERS workers," \
         "2 reactors${backend_flags:+ $backend_flags}, $addr)"
done
