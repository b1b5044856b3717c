#!/usr/bin/env bash
# Build the g80rt runtime tests under ThreadSanitizer and run them.
#
# Usage: scripts/check_tsan.sh [build-dir]
#
# Uses the CMake `Tsan` configuration defined in the top-level
# CMakeLists.txt.  Like check_sanitize.sh, this script is coverage for the
# ucontext fiber engine, which a TSan build selects at compile time
# (src/exec/fiber.h).  Its switches in src/exec/fiber.cc carry
# __tsan_create/switch_to/destroy_fiber annotations, so TSan's shadow stack
# follows the simulated GPU threads across stack switches instead of
# reporting phantom races.
#
# Only the concurrency-heavy tests run here (ctest -R
# '^(rt_|resil_test|serve_|obs_|exec_|trace_batch|trace_oracle|invariant_fuzz)'):
# they are the ones that exercise the WorkerPool (including its work-stealing deques),
# the stream threads, the g80resil watchdog/cancellation machinery, the
# atomic Device counters, the g80serve session/scheduler threads (many
# concurrent unix-socket sessions sharing one device pool), and the per-slot
# trace arenas (each must stay private to the worker owning its launch
# slot) and the arena/analyzer oracles beside them, and the invariant
# fuzzer, whose pooled launches reuse each slot's fibers across the threads
# of a block, plus the fiber and block-runner unit tests (exec_test), whose
# handoff cases cross stacks the way a pooled launch does, and the launch
# test that counts the context each block runs under
# (ParallelLaunch.EveryBlockRunsUnderOneContext), whose pooled sweeps skip
# the traced blocks and rerun dirty or faulted sanitized grids.  The rest of
# the sequential suite is covered by check_sanitize.sh.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-tsan}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Tsan
cmake --build "$build" -j "$(nproc)" --target rt_stream_test rt_parallel_launch_test resil_test \
  serve_server_test serve_isolation_test serve_cache_test exec_test exec_fastpath_test trace_batch_test \
  trace_oracle_test obs_metrics_test obs_trace_test invariant_fuzz_test

# This build exists to cover the ucontext engine.  A configuration that lost
# its -fsanitize flags (a stale CMake cache once did) compiles the fast
# switch instead and would pass without covering it, so check the object.
fiber_obj="$build/src/exec/CMakeFiles/g80_exec.dir/fiber.cc.o"
fiber_syms="$(nm -u "$fiber_obj")"
if ! grep -qw swapcontext <<<"$fiber_syms" || grep -qw g80_ctx_swap <<<"$fiber_syms"; then
  echo "tsan: $fiber_obj does not use the ucontext fiber engine;" \
    "is -fsanitize missing from the build flags?" >&2
  exit 1
fi

# second_deadlock_stack: show both lock orders on any lock-inversion report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"

ctest --test-dir "$build" --output-on-failure -R '^(rt_|resil_test|serve_|obs_|exec_|trace_batch|trace_oracle|invariant_fuzz)' -j "$(nproc)"
echo "tsan: runtime tests passed"
