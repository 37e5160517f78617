#!/bin/sh
# Full local CI: lints, fresh configure, build, tests. Mirrors what a
# hosted pipeline would run; keep it green before pushing.
#
#   ./ci.sh            # fresh configure into build-ci/ and run everything
#   BUILD_DIR=build ./ci.sh   # reuse an existing tree
#   SKIP_TSAN=1 ./ci.sh       # skip the ThreadSanitizer stage
#   SKIP_ASAN=1 ./ci.sh       # skip the Address+UBSanitizer stage

set -eu
cd "$(dirname "$0")"

BUILD_DIR=${BUILD_DIR:-build-ci}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}

echo "== lint: metric naming convention =="
sh tools/check_metrics_names.sh

echo "== configure ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

echo "== observability smoke =="
"$BUILD_DIR"/tools/obs_dump --visits=1 --viewers=2 --rounds=1 \
    --format=json >/dev/null

echo "== http smoke: serve-http + healthz + visit + drain =="
smoke_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lightor serve-http --db="$smoke_dir/db" --port=0 \
    --port-file="$smoke_dir/port" --duration=30 > "$smoke_dir/server.log" &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  [ -s "$smoke_dir/port" ] && { port=$(cat "$smoke_dir/port"); break; }
  sleep 0.1
done
[ -n "$port" ] || { echo "http smoke: server never wrote its port" >&2
                    cat "$smoke_dir/server.log" >&2; exit 1; }
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/healthz
# First video of the default simulated platform (2 channels x 2 videos).
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/visit \
    --body='{"video_id":"dota2_channel0_v0","user":"ci"}' > /dev/null
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/metrics |
    grep -q lightor_net_requests_total || {
  echo "http smoke: /metrics is missing net counters" >&2; exit 1; }
# Ingest SLO gate: a short mixed burst (ingest on by default) whose
# ingest p99 must stay under a generous loopback bound; a violated
# target makes loadgen itself exit non-zero.
"$BUILD_DIR"/tools/lightor loadgen --port="$port" --threads=4 \
    --requests=32 --refine-w=0 --slo=ingest:250 \
    > "$smoke_dir/loadgen.log" 2>&1 || {
  echo "http smoke: loadgen ingest p99 SLO violated" >&2
  cat "$smoke_dir/loadgen.log" >&2; exit 1; }

echo "== trace smoke: traceparent -> /debug/requests + /debug/trace =="
trace_id=4bf92f3577b34da6a3ce929d0e0e4736
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/visit \
    --body='{"video_id":"dota2_channel0_v0","user":"ci"}' \
    --traceparent="00-$trace_id-00f067aa0ba902b7-01" > /dev/null
"$BUILD_DIR"/tools/lightor curl --port="$port" \
    --target="/debug/requests?route=/visit" | grep -q "$trace_id" || {
  echo "trace smoke: trace id missing from /debug/requests" >&2; exit 1; }
"$BUILD_DIR"/tools/lightor curl --port="$port" \
    --target="/debug/trace?trace_id=$trace_id" > "$smoke_dir/trace.json"
grep -q "$trace_id" "$smoke_dir/trace.json" || {
  echo "trace smoke: Chrome trace dump is missing the trace id" >&2; exit 1; }
grep -q "request /visit" "$smoke_dir/trace.json" || {
  echo "trace smoke: Chrome trace dump is missing the root span" >&2; exit 1; }

kill -TERM "$server_pid"
wait "$server_pid"
grep -q drained "$smoke_dir/server.log" || {
  echo "http smoke: server did not drain cleanly" >&2; exit 1; }
rm -rf "$smoke_dir"

echo "== recovery smoke: SIGKILL mid-burst -> restart -> differential /highlights =="
# A server with background refinement off (--batch=0) serves dots that are
# a pure function of the database: capture /highlights, checkpoint, SIGKILL
# it mid-loadgen-burst, restart over the same directory, and the recovered
# payload must match byte for byte (modulo the restart-reset snapshot
# version). /healthz must surface the recovery the restart performed.
rsmoke_dir=$(mktemp -d)
start_recovery_server() {
  "$BUILD_DIR"/tools/lightor serve-http --db="$rsmoke_dir/db" --port=0 \
      --batch=0 --checkpoint-sessions=50 \
      --port-file="$rsmoke_dir/port" --duration=60 > "$rsmoke_dir/$1" &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    [ -s "$rsmoke_dir/port" ] && { port=$(cat "$rsmoke_dir/port"); break; }
    sleep 0.1
  done
  rm -f "$rsmoke_dir/port"
  [ -n "$port" ] || { echo "recovery smoke: server never wrote its port" >&2
                      cat "$rsmoke_dir/$1" >&2; exit 1; }
}
start_recovery_server server1.log
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/visit \
    --body='{"video_id":"dota2_channel0_v0","user":"ci"}' > /dev/null
"$BUILD_DIR"/tools/lightor curl --port="$port" \
    --target="/highlights?video_id=dota2_channel0_v0" \
    > "$rsmoke_dir/pre.json"
"$BUILD_DIR"/tools/lightor curl --port="$port" --method=POST \
    --target=/debug/checkpoint | grep -q '"gen":' || {
  echo "recovery smoke: /debug/checkpoint did not run" >&2; exit 1; }
# Burst in the background, then SIGKILL the server mid-flight: no
# destructor, no drain — the restart sees whatever bytes survived.
"$BUILD_DIR"/tools/lightor loadgen --port="$port" --threads=4 \
    --requests=64 --refine-w=0 > "$rsmoke_dir/loadgen.log" 2>&1 &
loadgen_pid=$!
sleep 0.4
kill -9 "$server_pid"
wait "$loadgen_pid" || true  # wire errors expected once the server dies
wait "$server_pid" || true
start_recovery_server server2.log
"$BUILD_DIR"/tools/lightor curl --port="$port" --target=/healthz \
    > "$rsmoke_dir/healthz.json"
grep -q '"bootstrapped":true' "$rsmoke_dir/healthz.json" || {
  echo "recovery smoke: /healthz has no recovery stats" >&2
  cat "$rsmoke_dir/healthz.json" >&2; exit 1; }
grep -q '"checkpoint_gen":[1-9]' "$rsmoke_dir/healthz.json" || {
  echo "recovery smoke: restart did not load the checkpoint" >&2
  cat "$rsmoke_dir/healthz.json" >&2; exit 1; }
"$BUILD_DIR"/tools/lightor curl --port="$port" \
    --target="/highlights?video_id=dota2_channel0_v0" \
    > "$rsmoke_dir/post.json"
for f in pre post; do
  sed 's/"snapshot_version":[0-9]*//' "$rsmoke_dir/$f.json" \
      > "$rsmoke_dir/$f.norm"
done
cmp -s "$rsmoke_dir/pre.norm" "$rsmoke_dir/post.norm" || {
  echo "recovery smoke: /highlights diverged across the SIGKILL restart" >&2
  diff "$rsmoke_dir/pre.norm" "$rsmoke_dir/post.norm" >&2 || true; exit 1; }
kill -TERM "$server_pid"
wait "$server_pid"
grep -q drained "$rsmoke_dir/server2.log" || {
  echo "recovery smoke: restarted server did not drain cleanly" >&2; exit 1; }
rm -rf "$rsmoke_dir"

echo "== live smoke: flash crowd — 1k channels, one spiking 100x =="
# Fair-share admission gauntlet: a server with per-channel token buckets
# and async drain workers takes 1000 cold channels on chunked batch
# frames while one hot channel spikes 100x into its budget. Every cold
# delivery must land (loadgen exits non-zero on any cold failure), the
# hot overflow must actually surface as 429s, and the cold channels'
# worst provisional-snapshot staleness p99 must stay inside a generous
# loopback SLO.
live_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lightor serve-http --db="$live_dir/db" --port=0 \
    --port-file="$live_dir/port" --duration=120 \
    --refresh=16 --ingest-workers=2 --ingest-rate=400 --ingest-burst=800 \
    --ingest-queue=200000 --ingest-quantum=64 --publish-delay=0.05 \
    --log-level=warning > "$live_dir/server.log" 2>&1 &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  [ -s "$live_dir/port" ] && { port=$(cat "$live_dir/port"); break; }
  sleep 0.1
done
[ -n "$port" ] || { echo "live smoke: server never wrote its port" >&2
                    cat "$live_dir/server.log" >&2; exit 1; }
"$BUILD_DIR"/tools/lightor loadgen --port="$port" --threads=4 \
    --requests=2 --scenario=flash-crowd --flash-channels=1000 \
    --hot-mult=100 --slo=provisional_p99:2000 \
    > "$live_dir/loadgen.log" 2>&1 || {
  echo "live smoke: flash-crowd gauntlet failed" >&2
  cat "$live_dir/loadgen.log" >&2; exit 1; }
grep -q '"flash_cold_failures":0' "$live_dir/loadgen.log" || {
  echo "live smoke: cold-channel deliveries failed under the hot spike" >&2
  cat "$live_dir/loadgen.log" >&2; exit 1; }
grep -q '"throttled_429":[1-9]' "$live_dir/loadgen.log" || {
  echo "live smoke: the hot channel was never throttled (429)" >&2
  cat "$live_dir/loadgen.log" >&2; exit 1; }
kill -TERM "$server_pid"
wait "$server_pid"
rm -rf "$live_dir"

echo "== cluster smoke: 3 backends + router, SIGKILL mid-burst -> differential /highlights =="
# Real-process cluster behind the consistent-hash router
# (tools/cluster_up): the loadgen burst must survive a SIGKILL+restart
# of one backend with zero failed requests (router retries ride out the
# owner's restart), the /highlights bytes must match a single-process
# reference, and the whole-mix p99 — including the stalled requests —
# must stay inside a generous SLO.
sh tests/cluster_smoke_test.sh "$BUILD_DIR/tools/lightor" all:2500

echo "== bench regression: router overhead vs direct backend =="
# BENCH_cluster.json freezes the router's latency tax: the loaded
# whole-mix p99 through a one-backend router must stay within 20% of
# hitting the backend directly (serial per-hop cost is tracked but
# ungated). Loaded p99s wobble, hence the loose 40% trajectory gate.
cb_tmp=$(mktemp -d)
"$BUILD_DIR"/bench/cluster_bench --out="$cb_tmp/BENCH_cluster.json" \
    --dir="$cb_tmp/db" 2> /dev/null
sh tools/check_bench_regression.sh "$cb_tmp/BENCH_cluster.json" \
    BENCH_cluster.json 40
rm -rf "$cb_tmp"

echo "== bench regression: checkpointed recovery time =="
# The committed BENCH_recovery.json is the baseline trajectory; CI re-runs
# the cheapest scale and flags a >10% regression in checkpointed restart
# time (tools/check_bench_regression.sh; full refresh: run recovery_bench
# with no --scales filter and commit the new JSON).
bench_tmp=$(mktemp -d)
"$BUILD_DIR"/bench/recovery_bench --scales=10000 \
    --out="$bench_tmp/BENCH_recovery.json" --dir="$bench_tmp/db" \
    2> /dev/null
sh tools/check_bench_regression.sh "$bench_tmp/BENCH_recovery.json" \
    BENCH_recovery.json
rm -rf "$bench_tmp"

echo "== bench smoke: zero-copy hot path trajectory =="
# BENCH_core.json / BENCH_net.json freeze the interned-token hot path's
# throughput trajectory. CI re-runs the frozen suite in quick mode —
# which also exercises the in-binary differential gates against the
# legacy string path — and flags a throughput drop. Quick mode is noisy,
# hence the looser 40% gate here; the 10% default applies when comparing
# full runs (refresh: run hotpath_bench without --quick and commit both
# files).
hp_tmp=$(mktemp -d)
"$BUILD_DIR"/bench/hotpath_bench --quick \
    --out-core="$hp_tmp/BENCH_core.json" \
    --out-net="$hp_tmp/BENCH_net.json" > /dev/null
sh tools/check_bench_regression.sh "$hp_tmp/BENCH_core.json" \
    BENCH_core.json 40
sh tools/check_bench_regression.sh "$hp_tmp/BENCH_net.json" \
    BENCH_net.json 40
rm -rf "$hp_tmp"

echo "== bench smoke: live multi-channel ingest trajectory =="
# BENCH_live.json freezes over-the-wire ingest throughput at scale:
# msgs/sec at 1k/4k/10k channels, chunked batch frames vs single frames
# (the committed speedup is the >=2x batching evidence — live_bench
# aborts below that bar). CI re-runs the 1k-channel quick mode with the
# loose 40% gate; refresh by running live_bench without --quick and
# committing the new JSON.
lb_tmp=$(mktemp -d)
"$BUILD_DIR"/bench/live_bench --quick --log-level=warning \
    --out="$lb_tmp/BENCH_live.json" --dir="$lb_tmp/db" 2> /dev/null
sh tools/check_bench_regression.sh "$lb_tmp/BENCH_live.json" \
    BENCH_live.json 40
rm -rf "$lb_tmp"

echo "== e2ebench output checks: both workloads, short runs =="
# The benchmark's output checks are the strongest end-to-end correctness
# checks in the repo: first visit == Initialize, /finalize == batch
# Initializer, final /highlights == owner, monotone snapshot versions. A
# short run of each workload gates them; it gates no timing.
e2e_tmp=$(mktemp -d)
for workload in skewed uniform; do
  python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds 4 \
      --trace 0 > "$e2e_tmp/$workload.out" 2> "$e2e_tmp/$workload.log" || true
  tail -n 1 "$e2e_tmp/$workload.out" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' || {
    echo "e2ebench: $workload output checks failed" >&2
    tail -n 20 "$e2e_tmp/$workload.log" >&2
    tail -n 1 "$e2e_tmp/$workload.out" >&2
    exit 1; }
done
rm -rf "$e2e_tmp"

# The concurrent serving layer, the net front-end, and the obs registry
# they instrument are the multi-threaded parts of the tree: build just
# their tests with -fsanitize=thread and run them under TSan.
if [ "${SKIP_TSAN:-0}" != "1" ]; then
  echo "== thread sanitizer: serving + net + obs tests ($TSAN_BUILD_DIR) =="
  cmake -B "$TSAN_BUILD_DIR" -S . -DLIGHTOR_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD_DIR" -j --target \
      serving_server_test serving_deployment_test serving_stress_test \
      serving_stream_test serving_stream_stress_test \
      serving_recovery_test serving_fairness_test \
      net_server_test net_loadgen_test net_trace_test \
      obs_metrics_test obs_trace_test obs_trace_context_test \
      hotpath_diff_test
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
      -R '^(serving_|net_server|net_loadgen|net_trace|obs_|hotpath_diff)'
fi

# The storage engine and the fault-injection suite do the pointer- and
# buffer-heavy work (log framing, torn-tail truncation, crash-point
# enumeration), the JSON decoders take untrusted bytes off the wire, and
# the channel scheduler's deadline heap hands string ids across threads:
# run their tests under AddressSanitizer + UBSan.
if [ "${SKIP_ASAN:-0}" != "1" ]; then
  echo "== address+ub sanitizer: storage + fault + deployment + recovery + json + fairness tests ($ASAN_BUILD_DIR) =="
  cmake -B "$ASAN_BUILD_DIR" -S . -DLIGHTOR_SANITIZE=address,undefined \
      >/dev/null
  cmake --build "$ASAN_BUILD_DIR" -j --target \
      storage_serialize_test storage_log_test storage_stores_test \
      storage_database_test storage_compaction_test \
      storage_faults_test storage_checkpoint_test \
      serving_deployment_test serving_recovery_test serving_fairness_test \
      property_test hotpath_diff_test net_json_test
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure \
      -R '^(storage_|serving_deployment|serving_recovery|serving_fairness|property|hotpath_diff|net_json)'
fi
echo "ci: OK"
