#!/usr/bin/env bash
# CI crash-recovery gate for the durability plane: start pclabel-netd
# with --data-dir and --fsync always, register a dataset, SIGKILL the
# daemon in the middle of an append burst, restart it on the same
# directory and assert that (a) every acknowledged append survived —
# recovered rows are exactly 18+acked or 18+acked+1, the +1 being the
# single append that may have been in flight at kill time — and (b) the
# recovered label still answers queries. Then prove recovery is
# deterministic: two further clean restart+dump cycles over the same
# directory must produce byte-identical query/stats output.
#
# The data directory is left at target/crash-data-dir so CI can upload
# it as an artifact when this script fails (see .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pclabel-net --bin pclabel-netd --example net_crash

data_dir=target/crash-data-dir
rm -rf "$data_dir"

# Starts a durable daemon on an ephemeral port; sets $daemon_pid and
# $daemon_addr. No `timeout` wrapper: $daemon_pid must be the daemon
# itself so the SIGKILL below lands on it (a wrapper would absorb the
# signal and leave the daemon running); every client call is wrapped in
# `timeout` instead, so a hung daemon still fails the script. Recovery's
# boot summary goes to stderr, so capture both streams into one log —
# the "listening on ADDR" line stays the fourth whitespace-separated
# field on its line.
start_daemon() {
    local out="$1"
    ./target/release/pclabel-netd \
        --listen 127.0.0.1:0 --workers 2 --timeout-ms 1000 \
        --allow-remote-shutdown \
        --data-dir "$data_dir" --fsync always >"$out" 2>&1 &
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

boot1=$(mktemp)
start_daemon "$boot1"
timeout 60 ./target/release/examples/net_crash prepare "$daemon_addr"

# Append continuously; SIGKILL the daemon once at least 20 appends are
# acknowledged. The burst client prints "acked N" per acknowledged
# append and exits on its own when the connection dies under it.
burst_out=$(mktemp)
timeout 60 ./target/release/examples/net_crash burst "$daemon_addr" >"$burst_out" &
burst_pid=$!
for _ in $(seq 1 200); do
    [ "$(grep -c '^acked ' "$burst_out")" -ge 20 ] && break
    sleep 0.05
done
kill -9 "$daemon_pid"
wait "$burst_pid"
wait "$daemon_pid" 2>/dev/null || true
acked=$(awk '/^acked / {n=$2} END {print n+0}' "$burst_out")
if [ "$acked" -lt 20 ]; then
    echo "burst only got $acked acks before the kill" >&2
    cat "$burst_out" >&2
    exit 1
fi
echo "crash recovery: killed daemon after $acked acked appends"

# Restart on the same directory: every acked append must be there.
boot2=$(mktemp)
start_daemon "$boot2"
grep -q 'pclabel-netd: recovered' "$boot2" || {
    echo "restarted daemon printed no recovery summary" >&2
    cat "$boot2" >&2
    exit 1
}
timeout 60 ./target/release/examples/net_crash verify "$daemon_addr" "$acked"
timeout 60 ./target/release/examples/net_crash shutdown "$daemon_addr"
wait "$daemon_pid"

# Determinism: two further fresh recoveries of the untouched directory
# must serve byte-identical state. Each dump gets its own boot because
# the check is that two recoveries agree: each dump reads a store that
# only its own recovery built.
start_daemon "$(mktemp)"
timeout 60 ./target/release/examples/net_crash dump "$daemon_addr" >dump_1.txt
wait "$daemon_pid"
start_daemon "$(mktemp)"
timeout 60 ./target/release/examples/net_crash dump "$daemon_addr" >dump_2.txt
wait "$daemon_pid"
if ! diff -u dump_1.txt dump_2.txt; then
    echo "two recoveries of the same data dir served different state" >&2
    exit 1
fi
rm -f dump_1.txt dump_2.txt
echo "crash recovery ok ($acked acked appends survived SIGKILL; recovery deterministic)"
