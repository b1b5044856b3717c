// Kernel launching: the cudalite equivalent of kernel<<<grid, block>>>(...).
//
// A launch performs (up to) three passes over the same kernel template:
//   1. a TRACE pass over a small sample of blocks, instrumented, feeding the
//      occupancy calculator and timing model;
//   2. an optional g80check SANITIZE pass over the whole grid
//      (LaunchOptions::sanitize.enabled) validating barrier and
//      shared-memory semantics — see sanitizer/sanitizer.h;
//   3. a FUNCTIONAL pass over the whole grid, uninstrumented, producing the
//      kernel's actual results.
// Sampled blocks execute twice (or more), so kernels must be idempotent at
// block granularity — true of this entire suite (each block writes a
// disjoint output region from inputs that the launch does not mutate).
//
// Every pass runs each block through BlockRunner::run, whether or not the
// kernel calls __syncthreads: as on the G80, a barrier is just an
// instruction, and nothing declares it at launch time.  The runner sees for
// itself which threads park, so a barrier-free block runs on one fiber.
// Nor does a launch pick the fiber switch engine: the build does
// (exec/fiber.h), as the G80 runs every kernel on one thread scheduler.
//
// For very large grids (the 4096x4096 matmul of §4) callers disable the
// functional pass and rely on the trace sample for timing; functional
// correctness is established separately at smaller sizes by the test suite.
//
// A launch reports through what it returns.  g80prof and g80scope derive
// everything from the finished LaunchStats, so whoever holds a profiler or
// scope session records into it after the launch returns
// (prof::Profiler::record_launch, scope::Session::record_launch); cudalite
// knows neither.  The one thing reported while the launch runs is its
// g80resil attempts, to LaunchOptions::attempts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "exec/block_runner.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "occupancy/occupancy.h"
#include "resil/policy.h"
#include "resil/resilience.h"
#include "sanitizer/recorder.h"
#include "sanitizer/sanitizer.h"
#include "timing/model.h"

namespace g80 {

// Ctx instantiation for the g80check sanitize pass.
using SanitizeCtx = Ctx<SanitizerRecorder>;

struct LaunchOptions {
  // Registers per thread, as the CUDA 0.8 compiler would report (cubin
  // metadata).  The paper's kernels state these; our kernels carry the
  // paper's numbers where given and plausible estimates otherwise.
  int regs_per_thread = 10;
  // Number of blocks to trace for the timing model.  0 traces nothing: the
  // launch runs configuration validation, the functional pass and occupancy
  // (from the functional pass's shared-memory footprint) only, and
  // stats.trace / stats.timing stay empty.  Kernel outputs are bit-identical
  // either way — tracing never touches results by construction.  An armed
  // g80resil modeled watchdog (resilience.modeled_timeout_s > 0) raises the
  // count to 1 so it still sees a modeled time.
  int sample_blocks = 4;
  // Run the functional pass over the full grid.
  bool functional = true;
  // g80check: opt-in barrier-divergence and shared-memory-race validation
  // (plus deterministic fault injection).  Adds one extra pass over the
  // grid; launches with `enabled == false` execute exactly the seed paths.
  SanitizerOptions sanitize;
  // The name the launch's owner reports it under: g80rt labels the timeline
  // span with it and keys the runtime's profiler and scope session by it
  // ("" -> "kernel").  The launch itself never reads it.
  std::string kernel_name;
  // g80rt block scheduling: run the trace and functional passes' independent
  // blocks across this pool's workers.  nullptr falls back to the ambient
  // pool (set_ambient_launch_pool / ScopedLaunchPool), and with neither the
  // sequential path runs.  Kernel outputs and LaunchStats are bit-identical
  // either way: each thread running blocks uses its own BlockRunner (fibers
  // + shared-memory arena, kept across launches) and per-block traces merge
  // in sample order.  The g80check pass stays sequential — its shadow state
  // is grid-global.
  WorkerPool* pool = nullptr;
  // g80resil: opt-in watchdog timeouts, retry-with-backoff recovery, and
  // graceful degradation (see resil/policy.h and docs/error-handling.md).
  // Disabled launches execute exactly the pre-resil path.
  ResiliencePolicy resilience;
  // g80resil: receives this launch's attempt events (start, failure,
  // success) on the launching thread; null = none.  Observation never
  // changes what the launch runs or traces.
  AttemptObserver* attempts = nullptr;
};

// Ambient default worker pool, consulted when LaunchOptions::pool is null.
// Lets whole-application layers (the §5 suite, benches) go block-parallel
// without threading a pool through every launch call.  Thread-local, so
// concurrent g80rt streams can opt in independently.
WorkerPool* ambient_launch_pool();
void set_ambient_launch_pool(WorkerPool* pool);

class ScopedLaunchPool {
 public:
  explicit ScopedLaunchPool(WorkerPool* pool) : prev_(ambient_launch_pool()) {
    set_ambient_launch_pool(pool);
  }
  ~ScopedLaunchPool() { set_ambient_launch_pool(prev_); }
  ScopedLaunchPool(const ScopedLaunchPool&) = delete;
  ScopedLaunchPool& operator=(const ScopedLaunchPool&) = delete;

 private:
  WorkerPool* prev_;
};

struct LaunchStats {
  Dim3 grid, block;
  std::size_t smem_per_block = 0;
  int regs_per_thread = 0;
  Occupancy occupancy;
  TraceSummary trace;
  KernelTiming timing;
  // Findings from the g80check pass (empty unless sanitize.enabled).
  SanitizerReport sanitizer;
  // g80resil recovery provenance: how many attempts ran, at what fallback
  // level, and whether the launch recovered after transient failures.
  ResilienceStats resilience;

  // Device-side execution time of this launch.
  double kernel_seconds() const { return timing.seconds; }
  // Including the fixed driver launch overhead (dominant for the paper's
  // time-sliced simulators that relaunch every step, §5.1).
  double total_seconds(const DeviceSpec& spec) const {
    return timing.seconds + spec.launch_overhead_us * 1e-6;
  }
};

namespace detail {

// Evenly spread `n` sample indices over [0, total), always including the
// first and last block so grid-edge partial warps are represented.
std::vector<std::uint64_t> pick_sample_blocks(std::uint64_t total, int n);

// The calling thread's BlockRunner for SMs with `smem_capacity` bytes of
// shared memory: built on the thread's first launch for that capacity and
// kept until the thread exits, so its fibers, and their mapped stacks, carry
// over from launch to launch.  Runners are cached per OS thread, never per
// WorkerPool slot: slot numbers are per job, and two streams sharing a pool
// run their own slot 1 at the same time on different helper threads.
BlockRunner& thread_block_runner(std::size_t smem_capacity);

// Runs the blocks of one launch's passes on the borrowed per-thread
// runners, and keeps per slot the kernel's shared-memory footprint.
class RunnerSet {
 public:
  RunnerSet(int slots, Dim3 grid, Dim3 block, std::size_t smem_capacity,
            const CancelToken* cancel)
      : smem_used_(static_cast<std::size_t>(slots), 0),
        grid_(grid),
        block_(block),
        smem_capacity_(smem_capacity),
        cancel_(cancel) {}

  // Runs block `b` as `slot` on the calling thread's runner;
  // thread_body(env, tid) runs each of its threads.  Every acquire attaches
  // this launch's cancel token and `observer` (usually none): the runner
  // outlives the launch, so whatever a pass that threw left attached is
  // dropped here.  The footprint is stored right after the run, while this
  // thread still holds the runner — once the pass drains, a helper thread
  // may already be running another stream's kernel on it.
  template <class ThreadBody>
  void run_block(int slot, std::uint64_t b, const ThreadBody& thread_body,
                 BarrierObserver* observer = nullptr) {
    BlockRunner& r = thread_block_runner(smem_capacity_);
    r.set_cancel_token(cancel_);
    r.set_barrier_observer(observer);
    BlockEnv env{&r, grid_, block_,
                 delinearize(static_cast<unsigned>(b), grid_)};
    r.run(static_cast<int>(block_.count()),
          [&](int tid) { thread_body(env, tid); });
    smem_used_[static_cast<std::size_t>(slot)] = r.shared().bytes_used();
  }

  // Shared-memory footprint of the kernel: static __shared__ layout is
  // identical for every block (the CUDA model), so the max over slots that
  // ran at least one block equals the sequential path's value.
  std::size_t smem_bytes_used() const {
    return *std::max_element(smem_used_.begin(), smem_used_.end());
  }

 private:
  std::vector<std::size_t> smem_used_;  // per slot, 0 until it runs a block
  Dim3 grid_, block_;
  std::size_t smem_capacity_;
  const CancelToken* cancel_;
};

// Dispatch body(slot, index) over [0, total): sequential on the caller when
// no pool is available, block-parallel otherwise.  Either way every index
// runs exactly once and failures surface as the lowest-index exception.
// `cancel` (optional) makes the gap between blocks a cancellation point on
// both paths, so a fired g80resil watchdog preempts the launch without its
// skipped work being reported as success.
template <class Body>
void for_each_block(WorkerPool* pool, std::uint64_t total, const Body& body,
                    const CancelToken* cancel = nullptr) {
  if (pool != nullptr && pool->width() > 1 && total > 1) {
    pool->parallel_for(total, body, cancel);
  } else {
    for (std::uint64_t i = 0; i < total; ++i) {
      if (cancel != nullptr) cancel->check("sequential block loop");
      body(0, i);
    }
  }
}

}  // namespace detail

namespace detail {

// One attempt of a launch: everything from configuration validation through
// the functional pass.  `att` carries the g80resil attempt context — the
// watchdog's cancellation token (threaded into every between-block and
// barrier-release cancellation point) and the graceful-degradation level:
//   level 0  exactly the configuration the caller asked for;
//   level 1  block parallelism abandoned (sequential blocks on the caller,
//            sidestepping a starved or wedged worker pool);
//   level 2  additionally no sanitize pass and a trace sample of at most
//            one block: one when sanitizing was requested or the modeled
//            watchdog needs a trace, none otherwise — the minimum machinery
//            that still yields correct kernel outputs.  A caller that
//            profiles or scopes the returned stats gets the empty trace of
//            a sample-free launch.
// Kernel outputs are bit-identical across levels (block scheduling never
// changes results — the seed invariant); only trace/timing fidelity and
// validation coverage degrade.
template <class Kernel, class... Args>
void launch_impl(Device& dev, Dim3 grid, Dim3 block, const LaunchOptions& opt,
                 const AttemptConfig& att, LaunchStats& stats,
                 const Kernel& kernel, Args&... args) {
  const DeviceSpec& spec = dev.spec();
  const auto threads = static_cast<int>(block.count());

  // ---- Launch-configuration validation ----
  // Every violation records a sticky Status on the device (queryable via
  // get_last_error) and throws StatusError with full context.
  if (threads < 1 || threads > spec.max_threads_per_block) {
    dev.raise(Status::kInvalidConfiguration,
              "block of " + std::to_string(threads) + " threads exceeds the " +
                  std::to_string(spec.max_threads_per_block) +
                  " threads/block hardware limit");
  }
  if (grid.z != 1) {
    dev.raise(Status::kInvalidConfiguration,
              "grid.z = " + std::to_string(grid.z) +
                  ": G80 grids are 2-D (grid.z must be 1)");
  }
  if (grid.x > static_cast<unsigned>(spec.max_grid_dim) ||
      grid.y > static_cast<unsigned>(spec.max_grid_dim)) {
    dev.raise(Status::kInvalidConfiguration,
              "grid " + std::to_string(grid.x) + "x" + std::to_string(grid.y) +
                  " exceeds the " + std::to_string(spec.max_grid_dim) +
                  " blocks/dimension limit");
  }
  const std::uint64_t total_blocks = grid.count();
  if (total_blocks < 1) {
    dev.raise(Status::kInvalidConfiguration, "empty grid");
  }
  if (!TraceArena::supports_warp_size(spec.warp_size)) {
    dev.raise(Status::kInvalidConfiguration,
              "warp size " + std::to_string(spec.warp_size) +
                  " unsupported (must be even, 2..32)");
  }
  // One block's registers must fit the SM's file (allocated in
  // register_alloc_unit chunks) or the launch can never be scheduled.
  const long long unit = spec.register_alloc_unit;
  const long long block_regs =
      (static_cast<long long>(opt.regs_per_thread) * threads + unit - 1) / unit *
      unit;
  if (block_regs > spec.registers_per_sm) {
    dev.raise(Status::kLaunchOutOfResources,
              "block needs " + std::to_string(block_regs) + " registers (" +
                  std::to_string(opt.regs_per_thread) + "/thread x " +
                  std::to_string(threads) + " threads, allocated in chunks of " +
                  std::to_string(unit) + ") but the SM register file holds " +
                  std::to_string(spec.registers_per_sm));
  }

  // Block scheduling: explicit pool, else the ambient one (g80rt), else the
  // sequential seed path.  Slot 0 always runs on this thread.  Fallback
  // level >= 1 forces the sequential path outright (including past the
  // ambient pool — falling back *means* not trusting the pool).
  WorkerPool* pool =
      att.fallback_level >= 1
          ? nullptr
          : (opt.pool != nullptr ? opt.pool : ambient_launch_pool());
  const bool sanitize_enabled =
      att.fallback_level < 2 && opt.sanitize.enabled;
  // The sample count alone decides what the launch traces.  Level 2 keeps
  // one block when sanitizing was requested and none otherwise; an armed
  // modeled watchdog always keeps at least one, so it sees a modeled time.
  const bool modeled_watchdog =
      opt.resilience.enabled && opt.resilience.modeled_timeout_s > 0;
  int sample_blocks = att.fallback_level >= 2
                          ? (opt.sanitize.enabled ? 1 : 0)
                          : opt.sample_blocks;
  if (modeled_watchdog) sample_blocks = std::max(sample_blocks, 1);
  const CancelToken* cancel = att.cancel;
  const int slots =
      pool != nullptr && pool->width() > 1 ? pool->width() : 1;

  detail::RunnerSet runners(slots, grid, block, spec.shared_mem_per_sm,
                            cancel);

  stats.grid = grid;
  stats.block = block;
  stats.regs_per_thread = opt.regs_per_thread;

  try {
    // ---- Trace pass ----
    // Each sampled block is traced into its own slot-private lane buffers
    // and analyzed (coalescing / bank conflicts / constant broadcast /
    // texture cache) into a self-contained BlockTrace, stored by sample
    // index.  The merge therefore happens in sample order no matter which
    // worker finished first, keeping TraceSummary bit-identical to the
    // sequential path.
    const auto samples =
        detail::pick_sample_blocks(total_blocks, sample_blocks);
    if (!samples.empty()) {
      std::vector<BlockTrace> traces(samples.size());
      std::vector<std::vector<LaneTrace>> slot_lanes(
          static_cast<std::size_t>(slots));
      // Each slot owns a TraceArena whose SoA row capacity carries across
      // the blocks it traces, so steady-state recording allocates nothing.
      std::vector<TraceArena> slot_arenas(static_cast<std::size_t>(slots));
      detail::for_each_block(
          pool, samples.size(),
          [&](int slot, std::uint64_t i) {
            auto& lanes = slot_lanes[static_cast<std::size_t>(slot)];
            lanes.resize(static_cast<std::size_t>(threads));
            for (auto& l : lanes) l.clear();
            auto& arena = slot_arenas[static_cast<std::size_t>(slot)];
            arena.begin_block(spec, threads);
            runners.run_block(slot, samples[i], [&](BlockEnv& env, int tid) {
              TraceCtx ctx(&env, tid, LaneRecorder(&lanes[tid], arena, tid));
              kernel(ctx, args...);
            });
            traces[i] = collect_block_trace(spec, lanes, arena);
          },
          cancel);
      stats.smem_per_block = runners.smem_bytes_used();
      stats.trace = TraceSummary::summarize(traces);

      // ---- Occupancy + timing ----
      const KernelResources res{opt.regs_per_thread, stats.smem_per_block,
                                threads};
      stats.occupancy = compute_occupancy(spec, res);
      stats.timing =
          simulate_kernel(spec, stats.occupancy, total_blocks, stats.trace);

      // ---- g80resil modeled watchdog ----
      // The paper's display-timeout constraint (§5.1) on the simulated
      // clock: a launch whose modeled device time exceeds the budget is
      // rejected before the (expensive) sanitize and functional passes run.
      // This is deterministic — identical retries fail identically.
      if (modeled_watchdog &&
          stats.timing.seconds > opt.resilience.modeled_timeout_s) {
        std::ostringstream os;
        os << "modeled kernel time " << stats.timing.seconds
           << " s exceeds the " << opt.resilience.modeled_timeout_s
           << " s modeled watchdog budget (split the work across launches, "
              "as the paper's time-sliced simulators do)";
        dev.raise(Status::kTimeout, os.str());
      }
    }

    // ---- g80check sanitize pass ----
    // Full-grid pass under Ctx<SanitizerRecorder>: shadow memory watches
    // every shared access, the runner reports every barrier release, and
    // any configured fault injection perturbs this pass only.  Runs before
    // the functional pass so an injected corruption cannot leak into
    // results the host reads (blocks are idempotent; the functional pass
    // rewrites every output).
    if (sanitize_enabled) {
      Sanitizer san(opt.sanitize, spec.shared_mem_per_sm);
      for (std::uint64_t b = 0; b < total_blocks; ++b) {
        san.begin_block(b);
        runners.run_block(
            0, b,
            [&](BlockEnv& env, int tid) {
              SanitizeCtx ctx(&env, tid, SanitizerRecorder(&san, tid));
              kernel(ctx, args...);
            },
            &san);
      }
      stats.sanitizer = san.report();
      if (!stats.sanitizer.clean()) {
        dev.record_status(stats.sanitizer.findings.front().status);
        if (opt.sanitize.abort_on_error) {
          throw StatusError(stats.sanitizer.findings.front().status,
                            stats.sanitizer.summary());
        }
      }
    }

    // ---- Functional pass ----
    // Grid blocks are independent (each writes a disjoint output region, see
    // the header comment), so they distribute freely across worker slots;
    // within a block, fiber scheduling is unchanged, so results stay
    // bit-identical to sequential execution.
    if (opt.functional) {
      detail::for_each_block(
          pool, total_blocks,
          [&](int slot, std::uint64_t b) {
            runners.run_block(slot, b, [&](BlockEnv& env, int tid) {
              FuncCtx ctx(&env, tid, NullRecorder{});
              kernel(ctx, args...);
            });
          },
          cancel);
    }

    // Sample-free launch: no trace pass ran, so take the shared-memory
    // footprint from the functional pass (the static __shared__ layout is
    // identical in every pass) and fill in occupancy — the one model output
    // that needs no trace.  stats.trace/stats.timing stay empty by design.
    if (samples.empty()) {
      stats.smem_per_block = runners.smem_bytes_used();
      const KernelResources res{opt.regs_per_thread, stats.smem_per_block,
                                threads};
      stats.occupancy = compute_occupancy(spec, res);
    }
  } catch (const StatusError& e) {
    dev.record_status(e.status());
    throw;
  } catch (const Error&) {
    dev.record_status(Status::kLaunchFailure);
    throw;
  } catch (const std::exception& e) {
    // A kernel functor (or anything it called) threw a plain host exception.
    // Record the sticky status and wrap it as a StatusError so the failure
    // propagates as a g80::Status on the launching stream instead of
    // escaping untyped (and, before this clause existed, std::terminate-ing
    // a g80rt stream thread via an unhandled-exception path).
    dev.record_status(Status::kLaunchFailure);
    throw StatusError(Status::kLaunchFailure,
                      std::string("kernel threw: ") + e.what());
  } catch (...) {
    dev.record_status(Status::kLaunchFailure);
    throw StatusError(Status::kLaunchFailure,
                      "kernel threw a non-standard exception");
  }
}

}  // namespace detail

template <class Kernel, class... Args>
LaunchStats launch(Device& dev, Dim3 grid, Dim3 block, const LaunchOptions& opt,
                   const Kernel& kernel, Args&&... args) {
  LaunchStats stats;
  // Every attempt starts from fresh stats (blocks are idempotent, so a
  // partial failed attempt leaves nothing that needs undoing); the final
  // attempt's stats — plus the accumulated resilience history — survive.
  run_resilient(
      opt.resilience, stats.resilience,
      [&](const AttemptConfig& att) {
        stats = LaunchStats{};
        detail::launch_impl(dev, grid, block, opt, att, stats, kernel,
                            args...);
      },
      opt.attempts);
  // A launch that survived only through retries records the informational
  // kRecovered sticky status (last-writer-wins, like the CUDA runtime's
  // error slot), overwriting the transient failures of earlier attempts so
  // hosts polling get_last_error() see recovery rather than a stale error.
  if (stats.resilience.recovered) {
    dev.record_status(Status::kRecovered);
  }
  return stats;
}

}  // namespace g80
