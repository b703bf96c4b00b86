#!/usr/bin/env bash
# Asserts that the hot 2D bit-sliced kernels stay out of line in the
# compiled verifier library: nm must list colouringViolations<true|false>
# and pairPlanesViolations<true|false> as symbols of liblclgrid_lcl.a.
# Inlined into their callers, the sharded vc:4 pass measured slower, and
# every 2D request now reaches them through the d = 2 slice
# bitsliceViolationLinesD, one more caller the compiler could fold them
# into. The [[gnu::noinline]] on both kernels is what this check guards.
#
# Usage: scripts/check_noinline.sh [build-dir]   (default: build)
set -euo pipefail

build="${1:-build}"
lib="$build/liblclgrid_lcl.a"
if [[ ! -f "$lib" ]]; then
  echo "check_noinline: $lib not found (build the lclgrid_lcl target)" >&2
  exit 1
fi

symbols="$(nm -C "$lib")"
status=0
for kernel in colouringViolations pairPlanesViolations; do
  for mode in true false; do
    if ! grep -qF "${kernel}<${mode}>(" <<<"$symbols"; then
      echo "check_noinline: ${kernel}<${mode}> is not out of line in $lib" >&2
      status=1
    fi
  done
done
if [[ $status -eq 0 ]]; then
  echo "check_noinline: colouringViolations and pairPlanesViolations are out of line"
fi
exit $status
