#!/usr/bin/env bash
# The one-stop pre-merge gate: static checks, then the release and TSan
# test suites. Everything a CI job needs, runnable locally:
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --static   # static checks only (no builds)
#   scripts/check.sh --sarif    # also write build/frugal_analyze.sarif
#
# --sarif makes the frugal_analyze stage additionally emit a SARIF
# 2.1.0 report for code-scanning upload; it composes with --static.
#
# clang-format / clang-tidy steps are skipped (with a notice) when the
# binaries are not installed — the configs (.clang-format, .clang-tidy)
# still define the contract for environments that have them.
set -euo pipefail

cd "$(dirname "$0")/.."

STATIC_ONLY=0
SARIF_OUT=0
for arg in "$@"; do
    case "$arg" in
        --static) STATIC_ONLY=1 ;;
        --sarif)  SARIF_OUT=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

failures=0

note()  { printf '\n== %s ==\n' "$*"; }
skip()  { printf -- '-- skipped: %s\n' "$*"; }

# --- 1. formatting -----------------------------------------------------
note "clang-format (dry run)"
if command -v clang-format >/dev/null 2>&1; then
    mapfile -t sources < <(git ls-files \
        'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' \
        'examples/*.cpp')
    if ! clang-format --dry-run --Werror "${sources[@]}"; then
        failures=$((failures + 1))
    fi
else
    skip "clang-format not installed"
fi

# --- 2. clang-tidy -----------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc')
    if ! clang-tidy -p build --quiet "${tidy_sources[@]}"; then
        failures=$((failures + 1))
    fi
else
    skip "clang-tidy not installed"
fi

# --- 3. atomics lint ---------------------------------------------------
note "lint_atomics"
if ! python3 scripts/lint_atomics.py src tests bench examples; then
    failures=$((failures + 1))
fi

# --- 3b. Clang thread-safety analysis ----------------------------------
# Compile-only gate: -Werror=thread-safety over the annotated lock
# discipline (DESIGN.md §10.1). Clang-only — the attributes are no-ops
# elsewhere, so skipping on a GCC-only host loses coverage, not
# correctness.
note "thread-safety analysis (preset: tsa)"
if command -v clang++ >/dev/null 2>&1; then
    cmake --preset tsa >/dev/null
    if ! cmake --build --preset tsa -j "$(nproc)"; then
        failures=$((failures + 1))
    fi
else
    skip "clang++ not installed (-Werror=thread-safety needs Clang)"
fi

# --- 3c. frugal_analyze ------------------------------------------------
# Project-specific static analysis (DESIGN.md §11): module layering,
# static lock ranks, annotation coverage, atomics discipline, hot-path
# allocation freedom. `python3 scripts/frugal_analyze --explain
# <check-id>` describes any finding. Incremental per-file cache lives
# under build/.analyze-cache/. The clang frontend engages automatically
# when clang++ and build/compile_commands.json exist; otherwise the
# dependency-free internal frontend runs — the gate itself never skips.
note "frugal_analyze (static architecture checks)"
if ! command -v clang++ >/dev/null 2>&1; then
    echo "-- note: clang++ not installed; using the internal frontend"
fi
if ! python3 scripts/frugal_analyze -q; then
    failures=$((failures + 1))
fi
if [[ "$SARIF_OUT" == 1 ]]; then
    mkdir -p build
    # Exit code already accounted for above; the SARIF pass is for the
    # report artifact (code-scanning upload), not a second gate.
    python3 scripts/frugal_analyze --format=sarif \
        > build/frugal_analyze.sarif || true
    echo "-- wrote build/frugal_analyze.sarif"
fi

if [[ "$STATIC_ONLY" == 1 ]]; then
    note "static-only run done ($failures failure(s))"
    exit $((failures > 0))
fi

# --- 4. release build + tests ------------------------------------------
note "release build + ctest (preset: default)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"
if ! ctest --preset default; then
    failures=$((failures + 1))
fi

# --- 4b. hot-path microbenchmark smoke + baseline diff -------------------
# Runs bench_hotpath in smoke mode (small sizes, seconds) as a build/run
# canary, then compares the fresh metrics against the committed baseline
# BENCH_hotpath.json (scripts/bench_diff.py, shared by 4b-4c3). The diff
# is WARN-ONLY: absolute numbers vary by host; the point is to notice a
# vanished metric or an order-of-magnitude regression, not to gate on
# machine noise.
note "bench_hotpath smoke + baseline diff (warn-only)"
if ./build/bench/bench_hotpath --smoke --out build/BENCH_hotpath.json; then
    python3 scripts/bench_diff.py BENCH_hotpath.json \
        build/BENCH_hotpath.json bench_hotpath || true
else
    failures=$((failures + 1))
fi

# --- 4c. end-to-end engine bench smoke + baseline diff -------------------
# Same contract as 4b for bench_e2e_engine: a smoke run drives the *real*
# engine (trainers, flush threads, the gate) across
# the grid and exits non-zero if any cell trains a table that is not
# bit-equal to the single-threaded oracle — that part is a hard gate.
# The metric diff against the committed BENCH_e2e.json stays warn-only.
note "bench_e2e_engine smoke + baseline diff (warn-only)"
if ./build/bench/bench_e2e_engine --smoke --out build/BENCH_e2e.json; then
    python3 scripts/bench_diff.py BENCH_e2e.json \
        build/BENCH_e2e.json bench_e2e_engine || true
else
    failures=$((failures + 1))
fi

# --- 4c2. oracular-prefetch ablation smoke + baseline diff ---------------
# Same contract as 4c for bench_prefetch: the smoke grid runs the engine
# with oracular warming/eviction on and off across capacities and skews,
# and exits non-zero if any cell's trained table is not bit-equal to the
# oracle (hard gate). The diff against the committed BENCH_prefetch.json
# stays warn-only — smoke sizes make throughput cells noisy by design.
note "bench_prefetch smoke + baseline diff (warn-only)"
if ./build/bench/bench_prefetch --smoke --out build/BENCH_prefetch.json; then
    python3 scripts/bench_diff.py BENCH_prefetch.json \
        build/BENCH_prefetch.json bench_prefetch || true
else
    failures=$((failures + 1))
fi

# --- 4c3. cache-policy replay smoke + baseline diff ----------------------
# Same contract as 4c2 for bench_cache_policy: a bare-GpuCache trace
# replay scores LRU vs TinyLFU admission vs tiered vs tiered+oracular
# hints across capacities and skews. The binary exits non-zero if the
# tiered policy fails to beat pure LRU on hit rate in the thrashing
# Zipf-0.99 cells — hit rates are deterministic, so that part is a hard
# gate. The diff against the committed BENCH_cache_policy.json stays
# warn-only.
note "bench_cache_policy smoke + baseline diff (warn-only)"
if ./build/bench/bench_cache_policy --smoke \
        --out build/BENCH_cache_policy.json; then
    python3 scripts/bench_diff.py BENCH_cache_policy.json \
        build/BENCH_cache_policy.json bench_cache_policy || true
else
    failures=$((failures + 1))
fi

# --- 4d. chaos/overload smoke -------------------------------------------
# A shrunken seeded chaos campaign against the real engine: flusher
# deaths, flaky writes, registration stalls, a degraded-mode trainer
# death, and a mid-run memory-budget squeeze. The binary is its own hard gate —
# it exits non-zero if the degraded run diverges from the fault-free
# oracle, stalls, or never reaches kCritical (DESIGN.md §12.4).
note "bench_chaos smoke (degradation hard gate)"
if ! ./build/bench/bench_chaos --smoke --out build/BENCH_chaos.json; then
    failures=$((failures + 1))
fi

# --- 4d2. repo benchmark correctness negative control --------------------
# perfbench/selftest.py builds the repo benchmark (perfbench/, into
# $CARGO_TARGET_DIR/perfbench, default .bench_build/) and runs each
# workload briefly twice: unmodified runs must be bit-equal to the
# oracle, and runs with one trained value nudged by one ulp must be
# counted failed. A non-zero exit means the benchmark's correctness
# gate no longer holds (or no longer bites).
note "perfbench selftest (benchmark correctness gate)"
if ! python3 perfbench/selftest.py; then
    failures=$((failures + 1))
fi

# --- 4e. deterministic interleaving explorer ----------------------------
# Rebuilds the flush-path core with the model_atomic shims live and
# exhausts/samples schedules per scenario (DESIGN.md §10.2). Complements
# TSan: this finds sequentially-consistent interleaving bugs
# deterministically; TSan finds weak-memory races probabilistically.
note "model check build + ctest -L modelcheck (preset: modelcheck)"
cmake --preset modelcheck >/dev/null
cmake --build --preset modelcheck -j "$(nproc)"
if ! ctest --preset modelcheck; then
    failures=$((failures + 1))
fi

# --- 5. ThreadSanitizer build + tests ----------------------------------
note "TSan build + ctest (preset: tsan)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$(nproc)"
if ! ctest --preset tsan; then
    failures=$((failures + 1))
fi

# --- 6. AddressSanitizer pass over the fault-tolerance suites -----------
# Recovery paths (claim reclamation, flusher respawn, checkpoint staging)
# juggle raw buffers and thread lifetimes; run them under ASan too.
note "ASan build + ctest -L faulttol (preset: asan)"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$(nproc)"
if ! ctest --preset asan -L faulttol; then
    failures=$((failures + 1))
fi

note "done"
if [[ "$failures" -gt 0 ]]; then
    echo "check.sh: $failures stage(s) FAILED"
    exit 1
fi
echo "check.sh: all stages passed"
