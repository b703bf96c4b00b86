#!/usr/bin/env bash
# Keeps the configuration surface fixed. Every environment variable the
# library and tools read, and every CMake option, is another configuration
# that CI and the tests must cover; an alternative code path belongs in
# the tests as a reference (a TierPin, a fresh-solver call), not behind a
# process-wide switch. The check fails when
#  * a file under src/ or tools/ calls getenv on a name outside
#    ALLOWED_ENV (or on a name that is not a string literal), or
#  * the root CMakeLists.txt declares an option outside ALLOWED_OPTIONS.
# Adding a knob on purpose means adding it to the list below, in the same
# change, where a reviewer sees it.
#
# Usage: scripts/check_knobs.sh [repo-root]   (default: the script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

ALLOWED_ENV=(LCLGRID_SIMD LCLGRID_THREADS LCLGRID_FAULTS LCLGRID_TRACE
             LCLGRID_METRICS)
ALLOWED_OPTIONS=(LCLGRID_WERROR LCLGRID_SANITIZE LCLGRID_TSAN
                 LCLGRID_BUILD_TESTS LCLGRID_BUILD_BENCH
                 LCLGRID_BUILD_EXAMPLES)

contains() {
  local needle="$1"
  shift
  local item
  for item in "$@"; do
    [[ "$item" == "$needle" ]] && return 0
  done
  return 1
}

status=0

# -z reads each file as one record, so a call split across lines still
# matches; each match comes back as "path:call" followed by a NUL.
while IFS= read -r -d '' match; do
  file="${match%%:*}"
  call="$(tr -s '[:space:]' ' ' <<<"${match#*:}")"
  name="$(sed -nE 's/^.*getenv *\( *"([^"]*)" *\).*$/\1/p' <<<"$call")"
  if [[ -z "$name" ]]; then
    echo "check_knobs: $file: getenv without a literal name: $call" >&2
    status=1
  elif ! contains "$name" "${ALLOWED_ENV[@]}"; then
    echo "check_knobs: $file: reads environment variable $name" \
         "(allowed: ${ALLOWED_ENV[*]})" >&2
    status=1
  fi
done < <(grep -rzoP 'getenv\s*\([^)]*\)' "$root/src" "$root/tools" || true)

while IFS= read -r -d '' match; do
  name="$(sed -nE 's/^.*\( *([A-Za-z0-9_]+) *$/\1/p' <<<"$(tr -s '[:space:]' ' ' <<<"$match")")"
  if ! contains "$name" "${ALLOWED_OPTIONS[@]}"; then
    echo "check_knobs: CMakeLists.txt: declares option $name" \
         "(allowed: ${ALLOWED_OPTIONS[*]})" >&2
    status=1
  fi
done < <(grep -zoP '(?<![A-Za-z0-9_])(cmake_dependent_)?option\s*\(\s*[A-Za-z0-9_]+' \
           "$root/CMakeLists.txt" || true)

if [[ $status -eq 0 ]]; then
  echo "check_knobs: environment reads and CMake options match the allowed lists"
fi
exit $status
