#!/usr/bin/env bash
# Build and run the tier-1 test suite under AddressSanitizer + UBSan.
#
# Usage: scripts/check_sanitize.sh [build-dir]
#
# Uses the CMake `Sanitize` configuration defined in the top-level
# CMakeLists.txt.  This script is the ucontext fiber engine's coverage: an
# ASan build selects that engine at compile time (src/exec/fiber.h), so the
# whole suite — golden trace digests included — runs on it here, while a
# plain x86-64 build runs the same suite on the fast switch.  The ucontext
# switches in src/exec/fiber.cc carry __sanitizer_start/finish_switch_fiber
# annotations, so ASan's shadow stack follows the simulated GPU threads.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-sanitize}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Sanitize
cmake --build "$build" -j "$(nproc)"

# This build exists to cover the ucontext engine.  A configuration that lost
# its -fsanitize flags (a stale CMake cache once did) compiles the fast
# switch instead and would pass without covering it, so check the object.
fiber_obj="$build/src/exec/CMakeFiles/g80_exec.dir/fiber.cc.o"
fiber_syms="$(nm -u "$fiber_obj")"
if ! grep -qw swapcontext <<<"$fiber_syms" || grep -qw g80_ctx_swap <<<"$fiber_syms"; then
  echo "sanitize: $fiber_obj does not use the ucontext fiber engine;" \
    "is -fsanitize missing from the build flags?" >&2
  exit 1
fi

# detect_leaks: the simulator intentionally abandons fiber stacks when a
# kernel thread throws (fail-fast contract, see docs/error-handling.md);
# those are reachable at exit, so only report definite leaks.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
echo "sanitize: all tests passed"
