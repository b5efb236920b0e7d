#!/usr/bin/env bash
# Sanitizer CI pass for the Alrescha repo:
#
#   1. ASan + UBSan build, full ctest suite.
#   2. TSan build, the parallel-pipeline tests (thread pool, parallel
#      encode/convert determinism, multi-engine scale-out) with a high
#      thread count to provoke races.
#   3. The same TSan build re-run over the suites whose threads share
#      simulator state (pwalk, schedule equivalence, profile,
#      multi-engine, serve) with ALR_THREADS=8.  Engine runs execute
#      on their caller; what still races is the serve workers sharing
#      fleet engines and their schedule caches, the multi-engine pool,
#      and the parallel encode/convert on the process-wide pool that
#      preprocesses every case.
#
# Usage: tools/check_sanitizers.sh [build-dir-prefix] [all|asan|tsan]
# The second argument picks the passes: "asan" runs 1 (plus the forced-
# ISA replay re-runs), "tsan" runs 2 and 3, "all" (the default) runs
# everything.
# Exits non-zero on any build failure, test failure, or sanitizer report.

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"
passes="${2:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"
case "${passes}" in
    all|asan|tsan) ;;
    *) echo "unknown passes '${passes}' (all, asan or tsan)" >&2; exit 2 ;;
esac

run_suite() {
    local dir="$1" flags="$2" label="$3"
    shift 3
    echo "== ${label}: configuring ${dir} =="
    cmake -B "${dir}" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
    echo "== ${label}: building =="
    cmake --build "${dir}" -j "${jobs}" >/dev/null
    echo "== ${label}: testing =="
    (cd "${dir}" && ctest --output-on-failure -j "${jobs}" "$@")
}

if [[ "${passes}" != tsan ]]; then
# Address + undefined-behaviour pass over the whole suite.
run_suite "${prefix}-asan" \
    "-fsanitize=address,undefined -fno-sanitize-recover=all" \
    "ASan+UBSan"

# Re-run the replay dispatch/specialization suites under every forced
# ISA (same ASan+UBSan build): each pass pushes the auto-dispatched
# engines through a different kernel table, so misaligned vector
# loads, bad function-pointer stamps, or out-of-bounds row records in
# any per-ISA TU trip UBSan here even when auto would pick another
# table.  Unavailable ISAs exercise the fallback path instead -- also
# worth sanitizing.
for isa in scalar sse2 avx2 avx512 neon; do
    echo "== ASan+UBSan (ALR_SIMD_FORCE=${isa}): replay dispatch =="
    (cd "${prefix}-asan" && \
        ALR_SIMD_FORCE="${isa}" ctest --output-on-failure -j "${jobs}" \
            -R 'ReplayDispatch|ReplaySpecialize|ReplayContract|SimdReplay')
done

fi

if [[ "${passes}" != asan ]]; then
# Thread-sanitizer pass over the parallel pipeline.  ALR_THREADS=8
# forces real concurrency even on small CI machines.
ALR_THREADS=8 TSAN_OPTIONS="halt_on_error=1" run_suite "${prefix}-tsan" \
    "-fsanitize=thread" \
    "TSan" \
    -R 'ThreadPool|ParallelPipeline|Multi|Mmio'

# Re-run the suites whose threads share simulator state (same TSan
# build): serve workers on shared fleet engines, the multi-engine
# pool, and the equivalence suites, which sweep the process-wide pool
# that encodes and converts each case.
echo "== TSan: testing serve workers, multi-engine and host pools =="
(cd "${prefix}-tsan" && \
    ALR_THREADS=8 TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${jobs}" \
        -R 'Pwalk|ScheduleEquivalence|Profile|Multi|ServeConcurrency|ServeEquivalence')
fi

echo "== sanitizers: ${passes} passes clean =="
