#!/usr/bin/env bash
# End-to-end smoke test of the sharded serving stack: three dehealth_serve
# backends each own one contiguous shard of the auxiliary universe, a
# dehealth_router scatter-gathers across them, and the merged Top-K answers
# must be byte-identical to an UNSHARDED dehealth_serve over the same data.
# Unlike serve/smoke_test.sh this compares `topk` output (not `dump`): the
# router serves only the shardable query types — dump/refined/filtered need
# universe-global state and are refused upstream.
#
# The backends share one --index-path: each persists its own slice file,
# and a second backend of the same slice warm-starts from it.
#
# Usage: smoke_test.sh <dehealth_cli> <dehealth_serve> <dehealth_router>
#                      <dehealth_query> <work_dir>
set -eu

CLI="$1"
SERVE="$2"
ROUTER="$3"
QUERY="$4"
WORK="$5"

rm -rf "$WORK"
mkdir -p "$WORK"

PIDS=""
cleanup() {
  for pid in $PIDS; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Starts a server ($1=log tag, rest=command) and waits for its port file.
# Sets LAST_PID and LAST_PORT.
start_and_wait() {
  local tag="$1"
  shift
  "$@" --port 0 --port-file "$WORK/$tag.port" >"$WORK/$tag.log" 2>&1 &
  LAST_PID=$!
  PIDS="$PIDS $LAST_PID"
  LAST_PORT=""
  for _ in $(seq 1 300); do  # up to 30 s for load + phase-1 precompute
    if [ -s "$WORK/$tag.port" ]; then
      LAST_PORT=$(cat "$WORK/$tag.port")
      break
    fi
    kill -0 "$LAST_PID" 2>/dev/null || {
      cat "$WORK/$tag.log" >&2
      fail "$tag exited before publishing its port"
    }
    sleep 0.1
  done
  [ -n "$LAST_PORT" ] || fail "timed out waiting for $tag port file"
}

# --- shared dataset ------------------------------------------------------
"$CLI" generate --preset webmd --users 40 --seed 7 --out "$WORK/forum.jsonl"
"$CLI" split --dataset "$WORK/forum.jsonl" --aux-fraction 0.5 --seed 3 \
  --anon-out "$WORK/anon.jsonl" --aux-out "$WORK/aux.jsonl" \
  --truth-out "$WORK/truth.csv"

DATA_FLAGS="--anonymized $WORK/anon.jsonl --auxiliary $WORK/aux.jsonl \
  --k 5 --learner centroid --threads 2"

# --- golden: one unsharded server ---------------------------------------
start_and_wait golden "$SERVE" $DATA_FLAGS
GOLDEN_PORT="$LAST_PORT"
"$QUERY" topk --port "$GOLDEN_PORT" --users all >"$WORK/golden.topk"
[ -s "$WORK/golden.topk" ] || fail "unsharded server returned no topk output"

# --- three shard backends + the router ----------------------------------
# Each backend builds only its own slice and persists it next to the
# shared snapshot path; the whole-index file itself is never written.
BACKENDS=""
for i in 0 1 2; do
  start_and_wait "shard$i" "$SERVE" $DATA_FLAGS --shard-index "$i" \
    --shard-count 3 --index-path "$WORK/aux.dhix"
  BACKENDS="$BACKENDS,127.0.0.1:$LAST_PORT"
  if [ "$i" -eq 1 ]; then SHARD1_PORT="$LAST_PORT"; fi
done
BACKENDS="${BACKENDS#,}"
for i in 0 1 2; do
  [ -s "$WORK/aux.shard-$i-of-3.dhix" ] ||
    fail "shard $i did not write aux.shard-$i-of-3.dhix"
done
[ ! -e "$WORK/aux.dhix" ] || fail "a slice backend wrote the whole index"

# A second shard-1 backend on the same path loads the slice snapshot
# instead of building it, and answers byte for byte like the cold one.
start_and_wait shard1warm "$SERVE" $DATA_FLAGS --shard-index 1 \
  --shard-count 3 --index-path "$WORK/aux.dhix"
WARM_PORT="$LAST_PORT"
"$QUERY" metrics --port "$WARM_PORT" >"$WORK/warm.metrics"
grep -q "^dehealth_index_snapshot_loads_total 1$" "$WORK/warm.metrics" ||
  fail "warm shard-1 backend did not load its snapshot: $(grep snapshot "$WORK/warm.metrics")"
grep -q "^dehealth_index_snapshot_rebuilds_total 0$" "$WORK/warm.metrics" ||
  fail "warm shard-1 backend rebuilt its slice"
"$QUERY" topk --port "$SHARD1_PORT" --users all >"$WORK/shard1.cold.topk"
"$QUERY" topk --port "$WARM_PORT" --users all >"$WORK/shard1.warm.topk"
[ -s "$WORK/shard1.cold.topk" ] || fail "shard-1 backend returned no topk"
cmp "$WORK/shard1.cold.topk" "$WORK/shard1.warm.topk" ||
  fail "warm shard-1 backend answers differ from the cold one"

start_and_wait router "$ROUTER" --backends "$BACKENDS"
ROUTER_PID="$LAST_PID"
ROUTER_PORT="$LAST_PORT"
grep -q "3 shards" "$WORK/router.log" ||
  fail "router log missing shard count: $(cat "$WORK/router.log")"

# --- merged answers must be byte-identical to the unsharded server ------
"$QUERY" topk --port "$ROUTER_PORT" --users all >"$WORK/router.topk"
cmp "$WORK/golden.topk" "$WORK/router.topk" ||
  fail "routed topk differs from unsharded server output"

"$QUERY" topk --port "$ROUTER_PORT" --users 0,1,2 --k 3 >"$WORK/k3.topk"
"$QUERY" topk --port "$GOLDEN_PORT" --users 0,1,2 --k 3 >"$WORK/k3.golden"
cmp "$WORK/k3.golden" "$WORK/k3.topk" ||
  fail "routed topk --k 3 differs from unsharded server output"

"$QUERY" stats --port "$ROUTER_PORT" >"$WORK/stats.out"
grep -q "queries" "$WORK/stats.out" ||
  fail "router stats output missing counters: $(cat "$WORK/stats.out")"

# Refined answers need universe-global state: the router must refuse, not
# silently mis-answer.
if "$QUERY" refined --port "$ROUTER_PORT" --users 0 >/dev/null 2>&1; then
  fail "router accepted a refined query (must refuse: global-only phase)"
fi

# --- degrade: kill one backend; the router still answers -----------------
SHARD2_PID=$(echo "$PIDS" | awk '{print $4}')
kill -KILL "$SHARD2_PID" 2>/dev/null || true
"$QUERY" topk --port "$ROUTER_PORT" --users 0,1 \
    >"$WORK/partial.topk" 2>"$WORK/partial.err" ||
  fail "router failed outright with one backend down (expected degraded answer)"
[ -s "$WORK/partial.topk" ] || fail "degraded topk output is empty"
grep -q "PARTIAL" "$WORK/partial.err" ||
  fail "degraded topk did not warn PARTIAL on stderr"

# --- SIGTERM must drain the router gracefully ---------------------------
kill -TERM "$ROUTER_PID"
RC=0
wait "$ROUTER_PID" || RC=$?
[ "$RC" -eq 0 ] || {
  cat "$WORK/router.log" >&2
  fail "dehealth_router exited $RC after SIGTERM (expected graceful drain)"
}
grep -q "draining" "$WORK/router.log" ||
  fail "router log missing drain message"

echo "shard smoke test passed"
