#!/usr/bin/env bash
# End-to-end smoke test of the serving stack: dehealth_serve must come up,
# answer dehealth_query over DHQP, produce a dump CSV byte-identical to the
# one-shot `dehealth_cli attack --out` on the same data/config, report
# stats, and drain cleanly on SIGTERM (exit 0).
#
# Usage: smoke_test.sh <dehealth_cli> <dehealth_serve> <dehealth_query> <work_dir>
set -eu

CLI="$1"
SERVE="$2"
QUERY="$3"
WORK="$4"

rm -rf "$WORK"
mkdir -p "$WORK"

SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# --- one-shot golden via the CLI ----------------------------------------
"$CLI" generate --preset webmd --users 40 --seed 7 --out "$WORK/forum.jsonl"
"$CLI" split --dataset "$WORK/forum.jsonl" --aux-fraction 0.5 --seed 3 \
  --anon-out "$WORK/anon.jsonl" --aux-out "$WORK/aux.jsonl" \
  --truth-out "$WORK/truth.csv"
"$CLI" attack --anonymized "$WORK/anon.jsonl" --auxiliary "$WORK/aux.jsonl" \
  --k 5 --learner centroid --threads 2 --out "$WORK/cli.csv"
[ -s "$WORK/cli.csv" ] || fail "dehealth_cli wrote no predictions CSV"

# --- the retired --index flag fails closed ------------------------------
RC=0
"$SERVE" --anonymized "$WORK/anon.jsonl" --auxiliary "$WORK/aux.jsonl" \
  --index --port 0 >/dev/null 2>"$WORK/index.err" || RC=$?
[ "$RC" -eq 1 ] || fail "dehealth_serve --index exited $RC (expected 1)"
grep -q "unknown flag --index" "$WORK/index.err" ||
  fail "dehealth_serve --index error unclear: $(cat "$WORK/index.err")"

# --- bring the server up on an ephemeral port ---------------------------
"$SERVE" --anonymized "$WORK/anon.jsonl" --auxiliary "$WORK/aux.jsonl" \
  --k 5 --learner centroid --threads 2 \
  --port 0 --port-file "$WORK/port" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 200); do  # up to 20 s for the load + phase-1 precompute
  if [ -s "$WORK/port" ]; then
    PORT=$(cat "$WORK/port")
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || {
    cat "$WORK/serve.log" >&2
    fail "dehealth_serve exited before publishing its port"
  }
  sleep 0.1
done
[ -n "$PORT" ] || fail "timed out waiting for the port file"

# --- served answers must be byte-identical to the one-shot CSV ----------
"$QUERY" dump --port "$PORT" --out "$WORK/serve.csv"
cmp "$WORK/cli.csv" "$WORK/serve.csv" ||
  fail "served dump differs from one-shot dehealth_cli output"

"$QUERY" stats --port "$PORT" >"$WORK/stats.out"
grep -q "queries" "$WORK/stats.out" ||
  fail "stats output missing counters: $(cat "$WORK/stats.out")"

"$QUERY" topk --port "$PORT" --users 0,1,2 >/dev/null
"$QUERY" refined --port "$PORT" --users 3 >/dev/null

# --- the command word comes first: a leading flag prints usage ----------
RC=0
"$QUERY" --port "$PORT" metrics >/dev/null 2>"$WORK/order.err" || RC=$?
[ "$RC" -eq 1 ] || fail "dehealth_query --port N metrics exited $RC (expected 1)"
grep -q "usage: dehealth_query" "$WORK/order.err" ||
  fail "dehealth_query --port N metrics printed no usage: $(cat "$WORK/order.err")"

# --- a flag is checked against its own binary ---------------------------
# --idf is a switch of cli attack and serve: query names it as a flag it
# does not take instead of reading it as a flag missing its value.
RC=0
"$QUERY" stats --port 1 --idf >/dev/null 2>"$WORK/idf.err" || RC=$?
[ "$RC" -eq 1 ] || fail "dehealth_query stats --idf exited $RC (expected 1)"
grep -q "unknown flag --idf" "$WORK/idf.err" ||
  fail "dehealth_query stats --idf did not name --idf: $(cat "$WORK/idf.err")"

# --- SIGTERM must drain gracefully and exit 0 ---------------------------
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=""
[ "$RC" -eq 0 ] || {
  cat "$WORK/serve.log" >&2
  fail "dehealth_serve exited $RC after SIGTERM (expected graceful drain)"
}
grep -q "draining" "$WORK/serve.log" ||
  fail "server log missing drain message"
grep -q "serve:" "$WORK/serve.log" ||
  fail "server log missing final stats line"

echo "serve smoke test passed"
