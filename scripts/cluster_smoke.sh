#!/bin/sh
# cluster_smoke.sh — the CI gate for the cluster tier: boot three psdpd
# replicas in -cluster mode plus a psdpfront router, solve through the
# front, re-POST for a relayed cache hit, SIGKILL the replica that owns
# the digest, and require the same request to answer 200 with
# byte-identical content from a survivor (re-route, not error). A
# fresh-seed burst after the kill must see nothing but 2xx/429, and the
# front's /metrics must expose well-formed routing series. Does not
# touch the committed BENCH_psdp.json.
set -eu
cd "$(dirname "$0")/.."

BASE="${PSDP_CLUSTER_PORT:-18731}"
BIN="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

go build -o "$BIN/psdpd" ./cmd/psdpd
go build -o "$BIN/psdpfront" ./cmd/psdpfront
go build -o "$BIN/psdpgen" ./cmd/psdpgen

P1=$BASE; P2=$((BASE + 1)); P3=$((BASE + 2)); PF=$((BASE + 3))
U1="http://127.0.0.1:$P1"; U2="http://127.0.0.1:$P2"; U3="http://127.0.0.1:$P3"
MEMBERS="$U1,$U2,$U3"
FRONT="http://127.0.0.1:$PF"

"$BIN/psdpd" -addr "127.0.0.1:$P1" -cluster "$MEMBERS" -self "$U1" -probe-interval 200ms &
PID1=$!; PIDS="$PIDS $PID1"
"$BIN/psdpd" -addr "127.0.0.1:$P2" -cluster "$MEMBERS" -self "$U2" -probe-interval 200ms &
PID2=$!; PIDS="$PIDS $PID2"
"$BIN/psdpd" -addr "127.0.0.1:$P3" -cluster "$MEMBERS" -self "$U3" -probe-interval 200ms &
PID3=$!; PIDS="$PIDS $PID3"
"$BIN/psdpfront" -addr "127.0.0.1:$PF" -members "$MEMBERS" -probe-interval 200ms &
PIDS="$PIDS $!"

# Wait until every replica and the front report "converged":true on
# /statsz (their last probe round found every member healthy), so every
# ring holds all three members and kill-the-owner below picks the owner
# every node agrees on.
for u in "$U1" "$U2" "$U3" "$FRONT"; do
    i=0
    until curl -fs "$u/statsz" 2>/dev/null | grep -q '"converged":true'; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "cluster smoke: $u never converged on three healthy members"
            exit 1
        fi
        sleep 0.05
    done
done

# One solve through the front; its digest has exactly one owner.
"$BIN/psdpgen" -family sparse -m 24 -seed 7 -out "$BIN/inst.json"
printf '{"instance":%s,"eps":0.3,"seed":5,"scale":0.2,"maxIter":60}' \
    "$(cat "$BIN/inst.json")" > "$BIN/req.json"

solve() {
    curl -s -D "$BIN/$1.hdrs" -o "$BIN/$1.json" -w '%{http_code}' \
        -H 'Content-Type: application/json' \
        --data-binary @"$BIN/req.json" \
        "$FRONT/v1/decision"
}

code="$(solve first)"
if [ "$code" != "200" ]; then
    echo "cluster smoke: solve via front failed: HTTP $code"
    cat "$BIN/first.json"
    exit 1
fi
grep -q '"outcome"' "$BIN/first.json"
if ! tr -d '\r' < "$BIN/first.hdrs" | grep -qi '^x-psdpd-cache: miss'; then
    echo "cluster smoke: first solve was not a miss (headers below)"
    cat "$BIN/first.hdrs"
    exit 1
fi

# The repeat is a cache hit relayed through the front, bytes unchanged.
code="$(solve repeat)"
if [ "$code" != "200" ]; then
    echo "cluster smoke: repeat via front failed: HTTP $code"
    exit 1
fi
if ! tr -d '\r' < "$BIN/repeat.hdrs" | grep -qi '^x-psdpd-cache: hit'; then
    echo "cluster smoke: repeat was not a relayed cache hit (headers below)"
    cat "$BIN/repeat.hdrs"
    exit 1
fi
cmp -s "$BIN/first.json" "$BIN/repeat.json" || {
    echo "cluster smoke: cache hit returned different bytes"
    exit 1
}
echo "cluster smoke: routed solve + relayed cache hit OK"

# Find the owning replica (the one that solved) and kill it hard.
OWNER_PID=""
OWNER_URL=""
for pair in "$PID1 $U1" "$PID2 $U2" "$PID3 $U3"; do
    pid="${pair% *}"
    url="${pair#* }"
    if curl -s "$url/statsz" | grep -q '"solves":1'; then
        OWNER_PID="$pid"
        OWNER_URL="$url"
    fi
done
if [ -z "$OWNER_PID" ]; then
    echo "cluster smoke: no replica reports the solve"
    exit 1
fi
kill -9 "$OWNER_PID"
echo "cluster smoke: killed owner $OWNER_URL"

# The same request must re-route inside the front — one request, no
# error — and a survivor's deterministic re-solve returns the exact
# bytes the dead owner served.
code="$(solve rerouted)"
if [ "$code" != "200" ]; then
    echo "cluster smoke: post-kill solve failed: HTTP $code (must re-route)"
    cat "$BIN/rerouted.json"
    exit 1
fi
cmp -s "$BIN/first.json" "$BIN/rerouted.json" || {
    echo "cluster smoke: re-routed answer differs from the original bytes"
    exit 1
}
echo "cluster smoke: kill re-route byte-identical OK"

# Fresh work keeps flowing: a burst of new digests over the two
# survivors sees nothing but 2xx (or documented 429 backpressure).
for seed in $(seq 101 110); do
    printf '{"instance":%s,"eps":0.3,"seed":%d,"scale":0.2,"maxIter":60}' \
        "$(cat "$BIN/inst.json")" "$seed" > "$BIN/burst_req.json"
    code="$(curl -s -o "$BIN/burst.json" -w '%{http_code}' \
        -H 'Content-Type: application/json' \
        --data-binary @"$BIN/burst_req.json" \
        "$FRONT/v1/decision")"
    case "$code" in
    2??|429) ;;
    *)
        echo "cluster smoke: burst seed $seed got HTTP $code"
        cat "$BIN/burst.json"
        exit 1
        ;;
    esac
done
echo "cluster smoke: post-kill burst OK"

# The front's routing telemetry must be well-formed Prometheus text.
go run ./scripts/metricscheck "$FRONT/metrics" \
    psdpfront_requests_total \
    psdpfront_routed_total \
    psdpfront_members_healthy \
    psdpfront_cluster_converged

echo "cluster smoke: OK"
