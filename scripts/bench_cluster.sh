#!/bin/sh
# bench_cluster.sh — regenerate the horizontal-scaling baseline under
# the "cluster" key of BENCH_psdp.json. Boots 1-, 2-, and 3-replica
# fleets (each behind a psdpfront) in turn and drives each with the
# unique-digest cold workload of `psdpload -mode cluster`, so every
# request is an executed solve somewhere in the fleet and req/s
# measures how well routing spreads capacity.
#
# The benchmark box does not grow cores with replicas, so the replicas
# run with -solve-floor: each executed solve holds a worker at least
# that long, pinning per-replica capacity to workers/floor (the
# capacity model recorded in the bench section). The gate then requires
# near-linear scaling: >= MIN2 x req/s at two replicas and >= MIN3 x at
# three, versus the single-replica run.
set -eu
cd "$(dirname "$0")/.."

BASE="${PSDP_CLUSTER_PORT:-18741}"
OUT="${BENCH_OUT:-BENCH_psdp.json}"
FLOOR="${PSDP_FLOOR:-80ms}"
WORKERS="${PSDP_WORKERS:-2}"
CONCURRENCY="${PSDP_CONCURRENCY:-48}"
DURATION="${PSDP_DURATION:-8s}"
MIN2="${PSDP_MIN2:-1.7}"
MIN3="${PSDP_MIN3:-2.3}"

BIN="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

go build -o "$BIN/psdpd" ./cmd/psdpd
go build -o "$BIN/psdpfront" ./cmd/psdpfront
go build -o "$BIN/psdpload" ./cmd/psdpload

FRONT_PORT=$((BASE + 9))
FRONT="http://127.0.0.1:$FRONT_PORT"

run_scale() {
    k="$1"
    members=""
    i=0
    while [ "$i" -lt "$k" ]; do
        members="$members${members:+,}http://127.0.0.1:$((BASE + i))"
        i=$((i + 1))
    done

    pids=""
    i=0
    while [ "$i" -lt "$k" ]; do
        "$BIN/psdpd" -addr "127.0.0.1:$((BASE + i))" \
            -cluster "$members" -self "http://127.0.0.1:$((BASE + i))" \
            -workers "$WORKERS" -solve-floor "$FLOOR" -probe-interval 200ms &
        pids="$pids $!"
        i=$((i + 1))
    done
    "$BIN/psdpfront" -addr "127.0.0.1:$FRONT_PORT" -members "$members" -probe-interval 200ms &
    pids="$pids $!"
    PIDS="$PIDS $pids"

    # Every replica and the front must report "converged":true on
    # /statsz (every member probed healthy) before load starts, so the
    # run never routes on a partial ring.
    for u in $(echo "$members" | tr ',' ' ') "$FRONT"; do
        j=0
        until curl -fs "$u/statsz" 2>/dev/null | grep -q '"converged":true'; do
            j=$((j + 1))
            if [ "$j" -gt 200 ]; then
                echo "bench-cluster: $u never converged with $k replica(s)"
                exit 1
            fi
            sleep 0.05
        done
    done

    "$BIN/psdpload" -mode cluster -url "$FRONT" \
        -replicas "$k" -concurrency "$CONCURRENCY" -duration "$DURATION" \
        -n 6 -m 8 -eps 0.25 \
        -floor "$FLOOR" -workers-per-replica "$WORKERS" \
        -bench-out "$OUT"

    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    PIDS=""
}

for k in 1 2 3; do
    echo "== bench-cluster: $k replica(s)"
    run_scale "$k"
done

go run ./scripts/clustergate -bench "$OUT" -min2 "$MIN2" -min3 "$MIN3"
echo "bench-cluster: OK"
