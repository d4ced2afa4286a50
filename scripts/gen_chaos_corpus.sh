#!/usr/bin/env bash
# Regenerates the chaos seed corpora under fuzz/corpus/ by replaying
# seeded fault schedules over canonical protocol frames with the
# gen_chaos_corpus binary. The corpora give fuzz_wire_message and
# fuzz_serve_message the exact wire shapes the chaos drills produce, and
# fuzz_ipc_frame the outcome payloads an isolated child sends —
# regenerate when the chaos schedule derivation or the canonical
# protocol frames change, and say so in the commit. See DESIGN.md §16.
#
# Usage: gen_chaos_corpus.sh [build-dir]   (default: ./build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
bin="$build/tests/gen_chaos_corpus"

if [ ! -x "$bin" ]; then
  echo "gen_chaos_corpus binary not found at $bin — build it first:" >&2
  echo "  cmake --build $build --target gen_chaos_corpus" >&2
  exit 1
fi

"$bin" "$repo/fuzz/corpus"
echo "corpora written under $repo/fuzz/corpus/{wire_message,serve_message,ipc_frame}"
