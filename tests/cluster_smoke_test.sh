#!/bin/sh
# Cluster smoke test: boots a real 3-backend cluster behind the router
# (separate processes via tools/cluster_up), drives it with the cluster
# loadgen in differential mode, SIGKILLs one backend mid-burst and
# restarts it, and asserts that
#   (a) the run's /highlights output is byte-identical to a
#       single-process reference server replaying the accepted traffic,
#   (b) the router absorbed the crash with retries (metric > 0), and
#   (c) the killed backend is healthy again after restart.
# $1 is the path to the lightor binary; $2 (optional) is a loadgen
# --slo spec like "all:2500" gating the burst's p99 — generous enough to
# absorb the requests that stall (and are ridden out by router retries)
# while the killed backend is down.
set -e
LIGHTOR="$1"
SLO="${2:-}"
TMP=$(mktemp -d)
export CLUSTER_DIR="$TMP/cluster"
export LIGHTOR_BIN="$LIGHTOR"
HARNESS="$(dirname "$0")/../tools/cluster_up"

cleanup() {
  sh "$HARNESS" stop >/dev/null 2>&1 || true
  rm -rf "$TMP"
}
trap cleanup EXIT

ROUTER_PORT=$(sh "$HARNESS" start 3)

# A burst long enough that the mid-burst SIGKILL lands while requests
# are still flowing: on an idle 4-core host 600 requests per thread end
# within the 0.3 s sleep below, 2400 run for about a second. --live=0 keeps the mix to idempotent ops (visit /
# session), which the loadgen may retry across the crash; --retry-503
# absorbs both 503s and wire errors within its budget. The differential
# reference is built under $TMP and replays the accepted traffic.
"$LIGHTOR" loadgen --threads=4 --requests=2400 --live=0 --retry-503 \
    --check --db="$TMP/check" --port="$ROUTER_PORT" \
    ${SLO:+--slo="$SLO"} \
    > "$TMP/loadgen.json" 2> "$TMP/loadgen.log" &
LOADGEN_PID=$!

sleep 0.3
# Kill the busiest backend: with few videos the ring can leave a backend
# owning no keys, and SIGKILLing that one would prove nothing. The
# per-backend router counters say who is actually serving traffic; wait
# until the burst has visibly started before choosing.
VICTIM_ADDR=""
for _ in $(seq 1 50); do
  "$LIGHTOR" curl --port="$ROUTER_PORT" --target=/metrics > "$TMP/mid.txt"
  VICTIM_ADDR=$(awk '/^lightor_cluster_requests_total\{backend=/ {
    addr = $0; sub(/.*backend="/, "", addr); sub(/".*/, "", addr)
    if ($NF + 0 > best) { best = $NF + 0; victim = addr }
  } END { print victim }' "$TMP/mid.txt")
  [ -n "$VICTIM_ADDR" ] && break
  sleep 0.1
done
VICTIM=""
for i in 1 2 3; do
  [ "127.0.0.1:$(cat "$CLUSTER_DIR/backend$i.port")" = "$VICTIM_ADDR" ] \
      && VICTIM=$i
done
if [ -z "$VICTIM" ]; then
  echo "could not map victim address '$VICTIM_ADDR' to a backend" >&2
  exit 1
fi
sh "$HARNESS" kill "$VICTIM"
# Hold the restart until the router provably retried the dead owner (its
# retry budget rides out a much longer outage than this), so the
# retries-metric assertion below cannot race the burst.
for _ in $(seq 1 50); do
  "$LIGHTOR" curl --port="$ROUTER_PORT" --target=/metrics > "$TMP/mid.txt"
  RETRIES=$(awk '/^lightor_cluster_retries_total/ { sum += $NF } END { print sum + 0 }' \
      "$TMP/mid.txt")
  [ "$RETRIES" -gt 0 ] && break
  sleep 0.1
done
sh "$HARNESS" restart "$VICTIM"

if ! wait "$LOADGEN_PID"; then
  echo "cluster loadgen failed:" >&2
  cat "$TMP/loadgen.log" >&2
  exit 1
fi
grep -q "differential check: OK" "$TMP/loadgen.json"

# The router must have spent retries riding out the dead owner.
"$LIGHTOR" curl --port="$ROUTER_PORT" --target=/metrics > "$TMP/metrics.txt"
RETRIES=$(awk '/^lightor_cluster_retries_total/ { sum += $NF } END { print sum + 0 }' \
    "$TMP/metrics.txt")
if [ "$RETRIES" -le 0 ]; then
  echo "expected router retries > 0 across the SIGKILL, got $RETRIES" >&2
  exit 1
fi
# ... and never failed over: the restart landed well inside the retry
# budget, so every request stuck to its owner. A failover here would
# scatter a video's sessions across backends (which is exactly what the
# differential above would catch as a mismatch).
FAILOVERS=$(awk '/^lightor_cluster_failovers_total/ { sum += $NF } END { print sum + 0 }' \
    "$TMP/metrics.txt")
if [ "$FAILOVERS" -ne 0 ]; then
  echo "expected no failovers across a fast restart, got $FAILOVERS" >&2
  exit 1
fi

# Restarted backend is back in rotation (give the health checker one
# more probe interval to observe it).
sleep 0.7
sh "$HARNESS" status | grep -q '"health":"down"' && {
  echo "expected every backend healthy after restart" >&2
  exit 1
}
sh "$HARNESS" status | grep -q '"ring_size":3'

echo "cluster smoke: OK (router retries=$RETRIES)"
