#!/usr/bin/env bash
# Capacity-advisor service smoke test, three acts against the real
# binaries over loopback TCP, after a check that bad knob values are
# refused:
#
#   0. Bad knobs: --min-slack-ms / --max-ewma-ms set to nan, inf, -1 or
#      abc must exit 2 before a port is bound.
#   1. Overload: a healthy tier-1 answer, then a cold pipelined burst
#      against a 3-slot admission queue — the overflow must shed with a
#      typed queue-full reason and the admitted requests must still be
#      answered at tier 1.
#   2. Forced degradation: --degrade-depth=1 downgrades a burst to
#      analytic tier-0 answers flagged degraded=queue-depth.
#   3. Drain: SIGTERM mid-load — the server stops accepting, finishes the
#      admitted work, reports "drained: yes", and exits 0.
#
# Usage: serve_smoke.sh <advisor_server binary> <advisor_client binary>
set -euo pipefail

server="${1:?usage: serve_smoke.sh <advisor_server> <advisor_client>}"
client="${2:?usage: serve_smoke.sh <advisor_server> <advisor_client>}"
workdir="$(mktemp -d)"
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_for_port() {  # wait_for_port <logfile> -> echoes the bound port
  local log="$1" port=""
  for _ in $(seq 1 100); do
    port="$(grep -oE 'listening on port [0-9]+' "$log" 2>/dev/null \
            | grep -oE '[0-9]+' || true)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "FAIL: server never bound a port" >&2
                      cat "$log" >&2; exit 1; }
  echo "$port"
}

# --- Act 0: non-finite, negative or garbled knobs never bind a port -------

for flag in --min-slack-ms --max-ewma-ms; do
  for bad in nan inf -1 abc; do
    status=0
    timeout 10 "$server" --port=0 "$flag=$bad" \
      >"$workdir/badknob.log" 2>&1 || status=$?
    [ "$status" -eq 2 ] || {
      echo "FAIL: $flag=$bad exited $status, want 2" >&2
      cat "$workdir/badknob.log" >&2; exit 1; }
    if grep -q 'listening on port' "$workdir/badknob.log"; then
      echo "FAIL: $flag=$bad bound a port before rejecting" >&2
      exit 1
    fi
  done
done

# --- Act 1: healthy answer, then typed queue-full sheds -------------------

"$server" --port=0 --queue-capacity=3 --degrade-depth=0 --workers=2 \
  >"$workdir/server1.log" 2>&1 &
srv=$!
port="$(wait_for_port "$workdir/server1.log")"

"$client" --port="$port" --workload=EP.S --machine=test-numa4 \
  >"$workdir/healthy.log" 2>&1 || {
  echo "FAIL: healthy request failed" >&2
  cat "$workdir/healthy.log" >&2; exit 1; }
grep -q 'ok tier=1' "$workdir/healthy.log" || {
  echo "FAIL: healthy request was not served at tier 1" >&2
  cat "$workdir/healthy.log" >&2; exit 1; }

# Cold key, pipelined past the queue bound: 3 admitted, 5 shed.
"$client" --port="$port" --count=8 --workload=CG.S --machine=test-numa4 \
  >"$workdir/burst.log" 2>&1 || {
  echo "FAIL: burst client failed outright" >&2
  cat "$workdir/burst.log" >&2; exit 1; }
grep -q 'shed queue-full' "$workdir/burst.log" || {
  echo "FAIL: no typed queue-full shed in the burst" >&2
  cat "$workdir/burst.log" >&2; exit 1; }
grep -q 'ok tier=1' "$workdir/burst.log" || {
  echo "FAIL: admitted burst requests were not refined" >&2
  cat "$workdir/burst.log" >&2; exit 1; }

kill -TERM "$srv"
status=0; wait "$srv" || status=$?
[ "$status" -eq 0 ] || { echo "FAIL: act-1 server exited $status" >&2
                         cat "$workdir/server1.log" >&2; exit 1; }
grep -q 'drained: yes' "$workdir/server1.log" || {
  echo "FAIL: act-1 server did not drain" >&2
  cat "$workdir/server1.log" >&2; exit 1; }
grep -qE 'shed queue-full *[1-9]' "$workdir/server1.log" || {
  echo "FAIL: server counters disagree with the observed sheds" >&2
  cat "$workdir/server1.log" >&2; exit 1; }

# --- Act 2: forced degradation --------------------------------------------

"$server" --port=0 --degrade-depth=1 --workers=1 \
  >"$workdir/server2.log" 2>&1 &
srv=$!
port="$(wait_for_port "$workdir/server2.log")"

"$client" --port="$port" --count=6 --workload=EP.S --machine=test-numa4 \
  >"$workdir/degraded.log" 2>&1 || {
  echo "FAIL: degraded-burst client failed" >&2
  cat "$workdir/degraded.log" >&2; exit 1; }
grep -q 'degraded=queue-depth' "$workdir/degraded.log" || {
  echo "FAIL: burst was not degraded to tier 0" >&2
  cat "$workdir/degraded.log" >&2; exit 1; }

kill -TERM "$srv"
status=0; wait "$srv" || status=$?
[ "$status" -eq 0 ] || { echo "FAIL: act-2 server exited $status" >&2
                         cat "$workdir/server2.log" >&2; exit 1; }

# --- Act 3: SIGTERM drain mid-load ----------------------------------------

"$server" --port=0 --workers=1 >"$workdir/server3.log" 2>&1 &
srv=$!
port="$(wait_for_port "$workdir/server3.log")"

"$client" --port="$port" --count=4 --workload=CG.S --machine=test-numa4 \
  >"$workdir/drain.log" 2>&1 &
cli=$!
sleep 0.3  # let the burst get admitted before the drain fires
kill -TERM "$srv"

status=0; wait "$cli" || status=$?
[ "$status" -eq 0 ] || { echo "FAIL: in-flight client lost its answers" >&2
                         cat "$workdir/drain.log" >&2; exit 1; }
status=0; wait "$srv" || status=$?
[ "$status" -eq 0 ] || { echo "FAIL: draining server exited $status" >&2
                         cat "$workdir/server3.log" >&2; exit 1; }
grep -q 'drained: yes' "$workdir/server3.log" || {
  echo "FAIL: act-3 server did not report a clean drain" >&2
  cat "$workdir/server3.log" >&2; exit 1; }

echo "OK: bad knobs refused, overload sheds typed, degradation flagged," \
  "SIGTERM drained clean"
