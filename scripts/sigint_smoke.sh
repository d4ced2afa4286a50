#!/usr/bin/env bash
# SIGINT-mid-sweep smoke test: interrupt a checkpointed contention sweep,
# assert it exits gracefully (130) with a valid checkpoint on disk, then
# rerun the same command and assert it resumes from that checkpoint.
#
# Usage: sigint_smoke.sh <path-to-contention_sweep-binary>
set -euo pipefail

bin="${1:?usage: sigint_smoke.sh <contention_sweep binary>}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
ckpt="$workdir/sweep.ckpt"

# Serial pool keeps per-run wall time long enough that the interrupt
# reliably lands mid-sweep; retry with a longer fuse if the sweep wins
# the race and completes first.
for fuse in 2 1; do
  rm -f "$ckpt"
  "$bin" CG.S --workers=1 --checkpoint="$ckpt" >"$workdir/first.log" 2>&1 &
  pid=$!
  sleep "$fuse"
  if kill -INT "$pid" 2>/dev/null; then
    status=0
    wait "$pid" || status=$?
    if [ "$status" -eq 130 ]; then
      break
    fi
    echo "FAIL: interrupted sweep exited $status, expected 130" >&2
    cat "$workdir/first.log" >&2
    exit 1
  fi
  # The sweep finished before the signal; try again with a shorter fuse.
  wait "$pid" || true
  status=done
done

if [ "$status" = done ]; then
  echo "SKIP: sweep completed before SIGINT could land" >&2
  exit 0
fi

grep -q "stopped early" "$workdir/first.log" || {
  echo "FAIL: no graceful-stop diagnostic in output" >&2
  cat "$workdir/first.log" >&2
  exit 1
}

[ -s "$ckpt" ] || {
  echo "FAIL: no checkpoint flushed at $ckpt" >&2
  exit 1
}
# Checkpoint v4 shape: nothing but CRC-checked frames, a version-4
# header, and as many record frames as the header counts.
python3 "$(dirname "$0")/check_checkpoint.py" "$ckpt" || {
  echo "FAIL: flushed checkpoint is not a valid v4 checkpoint" >&2
  exit 1
}

# Resume: must restore the completed subset and finish the sweep.
"$bin" CG.S --workers=1 --checkpoint="$ckpt" >"$workdir/second.log" 2>&1 || {
  echo "FAIL: resumed sweep exited nonzero" >&2
  cat "$workdir/second.log" >&2
  exit 1
}
grep -q "restored from checkpoint" "$workdir/second.log" || {
  echo "FAIL: resumed sweep did not restore from the checkpoint" >&2
  cat "$workdir/second.log" >&2
  exit 1
}

echo "OK: graceful SIGINT stop, valid checkpoint, successful resume"
