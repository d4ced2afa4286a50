#!/usr/bin/env bash
# Fails when a header under src/ is included only by tests: code that
# nothing but tests reaches either earns a production caller or moves out
# of src/. An includer counts when it lives outside tests/ and is not the
# header's own implementation file (foo.hpp's foo.cpp).
#
# ALLOWLIST names the test-only headers that are known and scheduled to
# get a caller or leave src/ (ROADMAP item 3). Shrink it; never grow it.
# An entry that names no header under src/ fails too, so a deleted header
# must take its entry with it.
#
# Usage: check_test_only_headers.sh [repo-dir]   (default: this checkout)
set -euo pipefail

repo="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$repo"

ALLOWLIST=(
  queueing/models.hpp
  queueing/single_queue_sim.hpp
)

allowed() {
  local header="$1" entry
  for entry in "${ALLOWLIST[@]}"; do
    [ "$entry" = "$header" ] && return 0
  done
  return 1
}

# Every C++ source outside tests/ may count as an includer.
dirs=(src examples bench fuzz perfbench)

failed=0
for entry in "${ALLOWLIST[@]}"; do
  if [ ! -f "src/$entry" ]; then
    echo "FAIL: allowlist entry src/$entry names no header;" \
         "drop it from the allowlist in $0" >&2
    failed=1
  fi
done

while IFS= read -r path; do
  header="${path#src/}"
  own="${path%.hpp}.cpp"
  includers="$(grep -rlF --include='*.hpp' --include='*.cpp' \
                 "#include \"$header\"" "${dirs[@]}" 2>/dev/null |
               grep -vxF -e "$path" -e "$own" || true)"
  if [ -z "$includers" ]; then
    if allowed "$header"; then
      echo "allowed test-only header: src/$header"
    else
      echo "FAIL: src/$header has no includer outside tests/" >&2
      failed=1
    fi
  elif allowed "$header"; then
    echo "FAIL: src/$header has a production includer now;" \
         "drop it from the allowlist in $0" >&2
    failed=1
  fi
done < <(find src -type f -name '*.hpp' | sort)

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "OK: every other src/ header has an includer outside tests/"
