#!/usr/bin/env bash
# CI chaos-soak gate for graceful degradation: boot a durable
# pclabel-netd with a PCLABEL_FAULT_PLAN that opens an ENOSPC/EIO window
# shortly into the run, then drive concurrent append + query load
# through the window and assert that
#   (a) the daemon never crashes and every query answers 200 throughout,
#   (b) mutations inside the window get the typed degraded rejection
#       (and /healthz answers 503) rather than corrupting anything,
#   (c) the store returns to read-write on its own once the window
#       closes (probe-thread heal: sanitize + fresh snapshot),
#   (d) after a clean reboot, recovered rows are EXACTLY 18 + acked —
#       no acknowledged append lost, no unacknowledged append replayed,
#   (e) recovery is deterministic: two further fresh boots of the same
#       directory dump byte-identical state.
#
# The data directory is left at target/chaos-data-dir and the fault plan
# at target/chaos-fault-plan.txt so CI can upload both as artifacts when
# this script fails (see .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pclabel-net --bin pclabel-netd --example net_chaos

data_dir=target/chaos-data-dir
rm -rf "$data_dir"

# The fault window: ~3s after the plan arms (first disk touch at boot)
# every WAL write/fsync and snapshot write/fsync/rename fails for ~2.5s
# (time windows, not occurrence counts — degraded mode stops traffic
# from reaching the fault points, so a count window would never close).
# ENOSPC on the write paths, EIO on the fsync paths: both roads into
# degraded mode.
fault_plan='seed=7;wal.write=enospc@t3..5.5;wal.fsync=eio@t3..5.5;wal.create=enospc@t3..5.5;snap.write=enospc@t3..5.5;snap.fsync=eio@t3..5.5;snap.rename=eio@t3..5.5'
printf '%s\n' "$fault_plan" >target/chaos-fault-plan.txt

# Starts a durable daemon on an ephemeral port; sets $daemon_pid and
# $daemon_addr. The fault plan is injected via the environment only for
# the soak boot (first argument "faulty"); reboots run clean.
start_daemon() {
    local mode="$1" out="$2"
    local plan=""
    [ "$mode" = faulty ] && plan="$fault_plan"
    PCLABEL_FAULT_PLAN="$plan" ./target/release/pclabel-netd \
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

# Soak boot: the fault plan arms when the WAL module first touches disk
# during recovery, so daemon boot + prepare sit comfortably before the
# t3 window opens and the soak (8s) spans it entirely.
boot1=$(mktemp)
start_daemon faulty "$boot1"
timeout 60 ./target/release/examples/net_chaos prepare "$daemon_addr"
soak_out=$(mktemp)
timeout 120 ./target/release/examples/net_chaos soak "$daemon_addr" 8 | tee "$soak_out"
acked=$(awk '/^acked / {n=$2} END {print n+0}' "$soak_out")
if [ "$acked" -lt 1 ]; then
    echo "soak acknowledged no appends" >&2
    exit 1
fi
kill -0 "$daemon_pid" || {
    echo "daemon died during the fault window" >&2
    cat "$boot1" >&2
    exit 1
}
timeout 60 ./target/release/examples/net_chaos shutdown "$daemon_addr"
wait "$daemon_pid"
echo "chaos soak: $acked appends acked across the fault window"

# Clean reboot: exactly 18+acked rows, healthy, queries answering.
boot2=$(mktemp)
start_daemon clean "$boot2"
grep -q 'pclabel-netd: recovered' "$boot2" || {
    echo "restarted daemon printed no recovery summary" >&2
    cat "$boot2" >&2
    exit 1
}
timeout 60 ./target/release/examples/net_chaos verify "$daemon_addr" "$acked"
timeout 60 ./target/release/examples/net_chaos shutdown "$daemon_addr"
wait "$daemon_pid"

# Determinism: two further fresh boots of the untouched directory must
# serve byte-identical state (each dump on its own boot — the check is
# that two recoveries agree).
start_daemon clean "$(mktemp)"
timeout 60 ./target/release/examples/net_chaos dump "$daemon_addr" >chaos_dump_1.txt
wait "$daemon_pid"
start_daemon clean "$(mktemp)"
timeout 60 ./target/release/examples/net_chaos dump "$daemon_addr" >chaos_dump_2.txt
wait "$daemon_pid"
if ! diff -u chaos_dump_1.txt chaos_dump_2.txt; then
    echo "two recoveries of the same data dir served different state" >&2
    exit 1
fi
rm -f chaos_dump_1.txt chaos_dump_2.txt
echo "chaos soak ok ($acked acked appends survived the ENOSPC window; degraded mode recovered; replay deterministic)"
