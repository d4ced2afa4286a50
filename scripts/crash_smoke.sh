#!/usr/bin/env bash
# Crash-containment smoke test: run an isolated (--isolate) checkpointed
# sweep, SIGKILL one of its forked attempt children mid-run, and assert
# the sweep still finishes with exit 0 — the killed attempt must come back
# as a recovered RunFailure{crash}, the checkpoint must stay a valid v4 file,
# and a rerun must resume from it.
#
# Usage: crash_smoke.sh <path-to-contention_sweep-binary>
set -euo pipefail

bin="${1:?usage: crash_smoke.sh <contention_sweep binary>}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
ckpt="$workdir/sweep.ckpt"

"$bin" CG.S --workers=1 --isolate --checkpoint="$ckpt" \
  >"$workdir/first.log" 2>&1 &
pid=$!

# Hunt for a forked attempt child and SIGKILL it. The serial pool keeps at
# most one child alive at a time; polling fast enough catches one of the
# 24 per-core-count attempts unless the machine is absurdly quick.
killed=0
for _ in $(seq 1 600); do
  if ! kill -0 "$pid" 2>/dev/null; then
    break  # sweep already finished
  fi
  child="$(pgrep -P "$pid" | head -n1 || true)"
  if [ -n "$child" ] && kill -KILL "$child" 2>/dev/null; then
    killed=1
    break
  fi
  sleep 0.05
done

status=0
wait "$pid" || status=$?

if [ "$killed" -eq 0 ]; then
  echo "SKIP: sweep completed before a child could be killed" >&2
  exit 0
fi

# The murdered attempt must be contained: retried, recovered, sweep green.
if [ "$status" -ne 0 ]; then
  echo "FAIL: sweep with a SIGKILLed child exited $status, expected 0" >&2
  cat "$workdir/first.log" >&2
  exit 1
fi
grep -q "recovered" "$workdir/first.log" || {
  echo "FAIL: no recovered-crash diagnostic in output" >&2
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

# Resume: the completed sweep restores wholesale and still exits 0.
"$bin" CG.S --workers=1 --isolate --checkpoint="$ckpt" \
  >"$workdir/second.log" 2>&1 || {
  echo "FAIL: resumed sweep exited nonzero" >&2
  cat "$workdir/second.log" >&2
  exit 1
}
grep -q "restored from checkpoint" "$workdir/second.log" || {
  echo "FAIL: resumed sweep did not restore from the checkpoint" >&2
  cat "$workdir/second.log" >&2
  exit 1
}

echo "OK: SIGKILLed child contained as recovered crash, checkpoint valid, resume clean"
