#!/usr/bin/env bash
# One-command analysis stack for mpsocsim:
#   1. build (ASan+UBSan) + run mpsoc_lint over src/ tests/
#      tools/
#   2. full ctest pass under AddressSanitizer + UndefinedBehaviorSanitizer
#      (includes the monitored platform smoke runs and the protocol-monitor
#      negative tests)
#   3. monitored scenario sweep: every shipped scenario under
#      mpsoc_run --verify (protocol monitors + conservation audit)
#   4. parallel-sweep smoke: the shipped scenarios at -j 2 vs -j 1 must emit
#      byte-identical digest sets (determinism under parallelism); the -j 2
#      run writes BENCH_sweep.json (per-point wall-clock, Medges/s, digest)
#   5. kernel-perf smoke: fig3-small gated vs --no-gating digest compare;
#      throughput of both runs lands in BENCH_kernel.json
#      (mpsoc-bench-kernel-v3)
#   6. statecheck matrix: every shipped scenario under the
#      checkpoint-equivalence oracle (mpsoc_run --verify --statecheck) — the
#      oracle checkpoints mid-run, re-runs a window of edges after a rewind
#      and fails the stage if any state holder's digest diverges (an
#      incomplete SIM_STATE manifest); final digests must still match the
#      unchecked sweep
#   7. fast-forward matrix: every shipped scenario with the warm-up region
#      under the loosely-timed quantum engine (mpsoc_run
#      --fast-forward-until 100000000 --ff-check) — the in-run
#      handoff-equivalence oracle gates the checkpoint/restore boundary; the
#      warm-up cost harness then writes BENCH_ff.json and gates the LT
#      speedup at >= 5x
#   8. fuzz smoke: a bounded seeded campaign (mpsoc_fuzz, 50 cases) —
#      generator determinism is asserted by diffing two --emit passes, then
#      the monitored campaign gates on violations, invariant trips and
#      gated/ungated digest divergence, auto-shrinking any failure to a
#      minimal reproducer
#   9. clang-format --dry-run over src/ tests/ tools/ (skipped with a notice
#      when clang-format is not installed; tests/lint/ fixtures excluded)
#
# Usage: tools/check.sh [build-dir]     (default: build-check)
# Exit status is non-zero if any stage fails; all stages run so one pass
# reports every failure.
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

stage "mpsoc_lint"
# tests/lint/ is the linter's own deliberately-bad fixture corpus (covered by
# the test_lint ctest) — excluded from the whole-tree run.
if ! "$BUILD/tools/mpsoc_lint" --skip tests/lint/ \
      "$ROOT/src" "$ROOT/tests" "$ROOT/tools"; then
  FAILED=1
fi

stage "ctest under ASan+UBSan"
# halt_on_error makes UBSan findings fail the test instead of just logging.
if ! (cd "$BUILD" && \
      ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "$JOBS"); then
  FAILED=1
fi

stage "monitored scenario sweep (mpsoc_run --verify)"
if ! "$BUILD/tools/mpsoc_run" --verify "$ROOT"/tools/scenarios/*.scn; then
  FAILED=1
fi

stage "parallel-sweep smoke (-j 2 vs -j 1 digest compare)"
# A tiny grid (reduced workload scale) so the smoke stays fast; the digest
# sets of the serial and parallel runs must be byte-identical.
mkdir -p "$BUILD/sweep-smoke"
for topo in single-layer collapsed full; do
  cat > "$BUILD/sweep-smoke/$topo.scn" <<EOF
name = smoke-$topo
protocol = stbus
topology = $topo
memory = onchip
wait_states = 1
workload_scale = 0.1
include_cpu = false
EOF
done
if "$BUILD/tools/mpsoc_run" --sweep -j 1 --json "$BUILD/sweep-smoke/j1.json" \
      "$BUILD/sweep-smoke"/*.scn > /dev/null && \
   "$BUILD/tools/mpsoc_run" --sweep -j 2 --json "$BUILD/sweep-smoke/j2.json" \
      "$BUILD/sweep-smoke"/*.scn > /dev/null; then
  D1="$(grep -o '"digest": "[0-9a-f]*"' "$BUILD/sweep-smoke/j1.json")"
  D2="$(grep -o '"digest": "[0-9a-f]*"' "$BUILD/sweep-smoke/j2.json")"
  if [ -z "$D1" ] || [ "$D1" != "$D2" ]; then
    echo "sweep smoke: -j 1 and -j 2 digests differ (determinism regression)"
    diff <(echo "$D1") <(echo "$D2")
    FAILED=1
  else
    echo "sweep smoke: digests identical at -j 1 and -j 2"
    cp "$BUILD/sweep-smoke/j2.json" "$BUILD/BENCH_sweep.json"
    echo "wrote $BUILD/BENCH_sweep.json"
  fi
else
  echo "sweep smoke: mpsoc_run failed"
  FAILED=1
fi

stage "kernel-perf smoke (gating neutrality)"
# The Fig. 3 full-platform instance at reduced workload scale, gated vs
# --no-gating: the digests must match (a mismatch means some component slept
# with work pending).  Both runs' throughput is recorded in BENCH_kernel.json,
# schema mpsoc-bench-kernel-v3 (note: sanitizer build on whatever cores this
# host has — the committed repo-root BENCH_kernel.json is measured on a
# Release build; treat the smoke's throughput figures as a correctness
# by-product, not a benchmark).
mkdir -p "$BUILD/kernel-smoke"
cat > "$BUILD/kernel-smoke/fig3-small.scn" <<EOF
name = fig3-small
protocol = stbus
topology = full
memory = onchip
wait_states = 1
workload_scale = 0.25
EOF
if "$BUILD/tools/mpsoc_run" --sweep --json "$BUILD/kernel-smoke/gated.json" \
      "$BUILD/kernel-smoke/fig3-small.scn" > /dev/null && \
   "$BUILD/tools/mpsoc_run" --sweep --no-gating \
      --json "$BUILD/kernel-smoke/ungated.json" \
      "$BUILD/kernel-smoke/fig3-small.scn" > /dev/null; then
  DG="$(grep -o '"digest": "[0-9a-f]*"' "$BUILD/kernel-smoke/gated.json")"
  DU="$(grep -o '"digest": "[0-9a-f]*"' "$BUILD/kernel-smoke/ungated.json")"
  if [ -z "$DG" ] || [ "$DG" != "$DU" ]; then
    echo "kernel smoke: gated and ungated digests differ (activity gating"
    echo "must be behaviour-neutral; a component slept with work pending)"
    diff <(echo "$DG") <(echo "$DU")
    FAILED=1
  else
    echo "kernel smoke: digests identical with activity gating on and off"
    EG="$(grep -o '"sim_edges_per_s": [0-9.e+-]*' \
          "$BUILD/kernel-smoke/gated.json" | head -1 | sed 's/.*: //')"
    EU="$(grep -o '"sim_edges_per_s": [0-9.e+-]*' \
          "$BUILD/kernel-smoke/ungated.json" | head -1 | sed 's/.*: //')"
    cat > "$BUILD/BENCH_kernel.json" <<EOF
{
  "schema": "mpsoc-bench-kernel-v3",
  "build": "sanitizer-smoke",
  "hw_threads": $(nproc 2>/dev/null || echo 1),
  "scenario": "fig3-small (full-stbus, onchip, workload_scale 0.25)",
  "digest": ${DG#*: },
  "gated_edges_per_s": ${EG:-0},
  "ungated_edges_per_s": ${EU:-0}
}
EOF
    echo "wrote $BUILD/BENCH_kernel.json"
  fi
else
  echo "kernel smoke: mpsoc_run failed"
  FAILED=1
fi

stage "statecheck matrix (checkpoint-equivalence oracle)"
# The statecheck oracle over every shipped scenario, fully monitored:
# each run checkpoints at 1 us, executes a window of edges, rewinds and
# re-executes; any diverging state digest (an incomplete SIM_STATE manifest,
# or an evaluate() depending on un-checkpointed state) aborts the run.  The
# oracle replays a window mid-run, so the final results must still match the
# unchecked baseline digests bit-for-bit.
mkdir -p "$BUILD/statecheck-smoke"
if ! "$BUILD/tools/mpsoc_run" --sweep \
      --json "$BUILD/statecheck-smoke/base.json" \
      "$ROOT"/tools/scenarios/*.scn > /dev/null; then
  echo "statecheck matrix: unchecked baseline run failed"
  FAILED=1
elif ! "$BUILD/tools/mpsoc_run" --verify --statecheck --sweep \
      --json "$BUILD/statecheck-smoke/checked.json" \
      "$ROOT"/tools/scenarios/*.scn > /dev/null; then
  echo "statecheck matrix: divergence or failure"
  FAILED=1
else
  SB="$(grep -o '"digest": "[0-9a-f]*"' "$BUILD/statecheck-smoke/base.json")"
  DS="$(grep -o '"digest": "[0-9a-f]*"' \
        "$BUILD/statecheck-smoke/checked.json")"
  if [ -z "$DS" ] || [ "$DS" != "$SB" ]; then
    echo "statecheck matrix: digests differ from the unchecked run (the"
    echo "oracle's rewind must be invisible to results)"
    diff <(echo "$SB") <(echo "$DS")
    FAILED=1
  else
    echo "statecheck matrix: oracle green, digests identical"
  fi
fi

stage "fast-forward matrix (LT handoff oracle + warm-up speedup)"
# The loosely-timed quantum engine over every shipped scenario: [0, 100 us)
# fast-forwarded, then the checkpoint/restore handoff, the in-run
# handoff-equivalence oracle (--ff-check: step a window from the handoff,
# digest, rewind, re-step, compare) and the accurate remainder.  The
# protocol monitors stay off here: the LT warm-up legitimately bypasses the
# cycle-accurate buses they watch (ctest and the stages above cover the
# monitored paths).  The warm-up cost harness then writes BENCH_ff.json; the
# speedup on the warm-up region gates at >= 5x (the sanitizer build inflates
# both sides of the ratio roughly equally).
mkdir -p "$BUILD/ff-smoke"
if ! "$BUILD/tools/mpsoc_run" --ff-check --fast-forward-until 100000000 \
      --sweep --json "$BUILD/ff-smoke/ff.json" \
      "$ROOT"/tools/scenarios/*.scn > /dev/null; then
  echo "ff matrix: handoff-oracle or run failure"
  FAILED=1
elif "$BUILD/bench/bench_ff_warmup" --json "$BUILD/BENCH_ff.json" \
      > /dev/null; then
  echo "ff matrix: handoff oracle green"
  SPEEDUP="$(grep -o '"speedup": [0-9.e+-]*' "$BUILD/BENCH_ff.json" | \
             sed 's/.*: //')"
  if awk "BEGIN { exit !(${SPEEDUP:-0} >= 5.0) }"; then
    echo "ff warm-up speedup: ${SPEEDUP}x (gate: >= 5x)"
    echo "wrote $BUILD/BENCH_ff.json"
  else
    echo "ff warm-up speedup: ${SPEEDUP:-0}x is below the 5x gate"
    FAILED=1
  fi
else
  echo "ff warm-up: bench_ff_warmup failed"
  FAILED=1
fi

stage "fuzz smoke (seeded campaign, 50 cases)"
# Bounded deterministic fuzz campaign: a fixed seed, so a failure here is a
# regression, never noise.  Two --emit passes must print byte-identical
# scenario sets (generator determinism); the campaign itself runs every case
# fully monitored with activity gating on and off, gating on monitor
# violations, invariant trips and gated/ungated digest divergence, and
# delta-debugs any failure down to a minimal reproducer under
# $BUILD/fuzz-smoke/corpus.
FZ_OK=1
mkdir -p "$BUILD/fuzz-smoke"
if ! "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 --emit \
      > "$BUILD/fuzz-smoke/emit1.txt" || \
   ! "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 --emit \
      > "$BUILD/fuzz-smoke/emit2.txt"; then
  echo "fuzz smoke: generator run failed"
  FZ_OK=0
elif ! diff "$BUILD/fuzz-smoke/emit1.txt" "$BUILD/fuzz-smoke/emit2.txt" \
      > /dev/null; then
  echo "fuzz smoke: two --emit passes of the same seed differ (the"
  echo "generator must be a pure function of seed and index)"
  FZ_OK=0
fi
if [ "$FZ_OK" -eq 1 ]; then
  if "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 \
        --corpus-dir "$BUILD/fuzz-smoke/corpus"; then
    echo "fuzz smoke: 50 cases clean"
  else
    echo "fuzz smoke: campaign found a failure (minimal reproducer and"
    echo "replay command above; corpus under $BUILD/fuzz-smoke/corpus)"
    FZ_OK=0
  fi
fi
[ "$FZ_OK" -eq 1 ] || FAILED=1

stage "clang-format --dry-run"
# tests/lint/ holds deliberately-bad lint fixtures; they are not part of the
# formatted tree.
if command -v clang-format >/dev/null 2>&1; then
  if ! find "$ROOT/src" "$ROOT/tests" "$ROOT/tools" \
        \( -name '*.cpp' -o -name '*.hpp' \) \
        ! -path "*/tests/lint/*" | \
       xargs clang-format --dry-run --Werror; then
    FAILED=1
  fi
else
  echo "clang-format not installed; skipping format check"
fi

if [ "$FAILED" -ne 0 ]; then
  echo
  echo "check.sh: FAILURES above"
  exit 1
fi
echo
echo "check.sh: all stages passed"
