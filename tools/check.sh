#!/usr/bin/env bash
# Sanitizer pass over the whole gate registry (ctest) plus the long fuzz
# campaign:
#   1. configure with AddressSanitizer + UndefinedBehaviorSanitizer
#   2. build
#   3. ctest over every label (unit, golden, fastforward, fuzz, lint); the
#      golden suite runs the shipped scenarios under the protocol monitors
#      and the statecheck oracle
#   4. fuzz campaign: 50 seeded cases (too slow for tier-1).  Two --emit
#      passes must print byte-identical scenario sets (generator
#      determinism); every case then runs fully monitored with activity
#      gating on and off, and any failure is shrunk to a minimal reproducer
#      under $BUILD/fuzz-smoke/corpus.
#
# Usage: tools/check.sh [build-dir]     (default: build-check)
# Exit status is non-zero if the ctest or fuzz stage fails; both run so one
# pass reports every failure.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED=0

stage() { printf '\n=== %s ===\n' "$*"; }

stage "configure (ASan+UBSan)"
cmake -B "$BUILD" -S "$ROOT" -DMPSOC_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1

stage "build"
cmake --build "$BUILD" -j "$JOBS" || exit 1

stage "ctest under ASan+UBSan"
# halt_on_error makes UBSan findings fail the test instead of just logging.
(cd "$BUILD" && ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
   ctest --output-on-failure -j "$JOBS") || FAILED=1

stage "fuzz campaign (seed 2026, 50 cases)"
FUZZ="$BUILD/tools/mpsoc_fuzz"
OUT="$BUILD/fuzz-smoke"
mkdir -p "$OUT"
if "$FUZZ" --seed 2026 --count 50 --emit > "$OUT/emit1.txt" &&
   "$FUZZ" --seed 2026 --count 50 --emit > "$OUT/emit2.txt" &&
   diff -q "$OUT/emit1.txt" "$OUT/emit2.txt" &&
   "$FUZZ" --seed 2026 --count 50 --corpus-dir "$OUT/corpus"; then
  echo "fuzz campaign: 50 cases clean"
else
  echo "fuzz campaign: FAILED (generator nondeterminism or a reproducer above)"
  FAILED=1
fi

echo
if [ "$FAILED" -ne 0 ]; then
  echo "check.sh: FAILURES above"
  exit 1
fi
echo "check.sh: all stages passed"
