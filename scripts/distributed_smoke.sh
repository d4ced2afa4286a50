#!/usr/bin/env bash
# Distributed-sweep smoke test, three acts:
#
#   1. Serial control: one in-process sweep, CSV + CRC-32 fingerprint.
#   2. Loopback fleet: a coordinator and three workers (one straggling,
#      one SIGKILLed mid-sweep). The dead worker's leases must re-dispatch
#      and the merged CSV must be byte-identical to the serial control.
#   3. Coordinator crash: SIGKILL the coordinator mid-sweep, restart it
#      from its checkpoint with a fresh fleet, and assert the resumed run
#      converges to the same bytes.
#
# Usage: distributed_smoke.sh <path-to-contention_sweep-binary>
set -euo pipefail

bin="${1:?usage: distributed_smoke.sh <contention_sweep binary>}"
workdir="$(mktemp -d)"
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

workload="EP.S"

wait_for_port() {  # wait_for_port <logfile> -> echoes the bound port
  local log="$1" port=""
  for _ in $(seq 1 100); do
    port="$(grep -oE 'listening on port [0-9]+' "$log" 2>/dev/null \
            | grep -oE '[0-9]+' || true)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "FAIL: coordinator never bound a port" >&2
                      cat "$log" >&2; exit 1; }
  echo "$port"
}

fingerprint() {  # fingerprint <logfile>
  grep -oE 'csv fingerprint: [0-9a-f]+' "$1" | grep -oE '[0-9a-f]+$'
}

# --- Act 1: serial control ------------------------------------------------

"$bin" "$workload" --workers=2 --csv="$workdir/serial.csv" \
  >"$workdir/serial.log" 2>&1
serial_fp="$(fingerprint "$workdir/serial.log")"
[ -n "$serial_fp" ] || { echo "FAIL: serial run printed no fingerprint" >&2
                         cat "$workdir/serial.log" >&2; exit 1; }

# --- Act 2: fleet with a straggler and a murdered worker ------------------

"$bin" "$workload" --listen=0 --grace=30 --csv="$workdir/fleet.csv" \
  >"$workdir/coord.log" 2>&1 &
coord=$!
port="$(wait_for_port "$workdir/coord.log")"

"$bin" --connect="127.0.0.1:$port" --worker-id=steady \
  >"$workdir/w1.log" 2>&1 &
"$bin" --connect="127.0.0.1:$port" --worker-id=straggler --straggle-ms=100 \
  >"$workdir/w2.log" 2>&1 &
"$bin" --connect="127.0.0.1:$port" --worker-id=victim --straggle-ms=100 \
  >"$workdir/w3.log" 2>&1 &
victim=$!

# Let the victim pick up a lease, then SIGKILL it. The coordinator must
# notice the dropped connection and re-dispatch its in-flight task.
sleep 0.4
kill -KILL "$victim" 2>/dev/null || true

status=0
wait "$coord" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: fleet coordinator exited $status" >&2
  cat "$workdir/coord.log" >&2
  exit 1
fi

fleet_fp="$(fingerprint "$workdir/coord.log")"
if [ "$fleet_fp" != "$serial_fp" ]; then
  echo "FAIL: fleet fingerprint $fleet_fp != serial $serial_fp" >&2
  diff "$workdir/serial.csv" "$workdir/fleet.csv" >&2 || true
  exit 1
fi
cmp -s "$workdir/serial.csv" "$workdir/fleet.csv" || {
  echo "FAIL: fingerprints agree but CSV bytes differ (crc collision?)" >&2
  exit 1
}
grep -qE 'fleet: [0-9]+ worker' "$workdir/coord.log" || {
  echo "FAIL: coordinator reported no fleet stats" >&2
  cat "$workdir/coord.log" >&2
  exit 1
}

# --- Act 3: coordinator crash + checkpoint resume -------------------------

ckpt="$workdir/dist.ckpt"
"$bin" "$workload" --listen=0 --grace=30 --checkpoint="$ckpt" \
  >"$workdir/coord2.log" 2>&1 &
coord=$!
port="$(wait_for_port "$workdir/coord2.log")"

"$bin" --connect="127.0.0.1:$port" --worker-id=alpha --straggle-ms=60 \
  >"$workdir/w4.log" 2>&1 &
w4=$!
"$bin" --connect="127.0.0.1:$port" --worker-id=beta --straggle-ms=60 \
  >"$workdir/w5.log" 2>&1 &
w5=$!

# Wait for some results to be committed to the checkpoint, then murder
# the coordinator mid-sweep.
killed=0
for _ in $(seq 1 200); do
  if ! kill -0 "$coord" 2>/dev/null; then
    break  # finished before we struck — resume below restores wholesale
  fi
  if [ -s "$ckpt" ]; then
    kill -KILL "$coord" 2>/dev/null && killed=1
    break
  fi
  sleep 0.05
done
wait "$coord" 2>/dev/null || true
kill "$w4" "$w5" 2>/dev/null || true
wait "$w4" 2>/dev/null || true
wait "$w5" 2>/dev/null || true

[ -s "$ckpt" ] || { echo "FAIL: no checkpoint written before the crash" >&2
                    exit 1; }

"$bin" "$workload" --listen=0 --grace=30 --checkpoint="$ckpt" \
  --csv="$workdir/resumed.csv" >"$workdir/coord3.log" 2>&1 &
coord=$!
port="$(wait_for_port "$workdir/coord3.log")"
"$bin" --connect="127.0.0.1:$port" --worker-id=gamma \
  >"$workdir/w6.log" 2>&1 &

status=0
wait "$coord" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: resumed coordinator exited $status" >&2
  cat "$workdir/coord3.log" >&2
  exit 1
fi
if [ "$killed" -eq 1 ]; then
  grep -q "restored from checkpoint" "$workdir/coord3.log" || {
    echo "FAIL: resumed run did not restore from the checkpoint" >&2
    cat "$workdir/coord3.log" >&2
    exit 1
  }
fi
resumed_fp="$(fingerprint "$workdir/coord3.log")"
if [ "$resumed_fp" != "$serial_fp" ]; then
  echo "FAIL: resumed fingerprint $resumed_fp != serial $serial_fp" >&2
  diff "$workdir/serial.csv" "$workdir/resumed.csv" >&2 || true
  exit 1
fi

echo "OK: fleet with worker SIGKILL and coordinator crash+resume both" \
     "reproduced the serial CSV bit-for-bit (crc $serial_fp)"
