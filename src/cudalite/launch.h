// Kernel launching: the cudalite equivalent of kernel<<<grid, block>>>(...).
//
// A launch runs the same kernel template in two steps:
//   1. TRACE a small sample of blocks, instrumented, feeding the occupancy
//      calculator and timing model; each block's trace is analyzed while it
//      runs (cudalite/trace_collect.h);
//   2. SWEEP the grid once, each block under the one context a single rule
//      picks: a g80check SanitizeCtx for every block when sanitizing
//      (LaunchOptions::sanitize.enabled; see sanitizer/sanitizer.h), else
//      nothing for a sampled block, whose traced run already did the real
//      stores, else the uninstrumented FuncCtx when LaunchOptions::
//      functional is set.
// As on the G80, every block of a plain launch runs once.  A block runs
// again only when a g80resil retry reruns the launch, when a sanitized
// launch also traced it, or when a dirty or faulted sanitized sweep is
// rerun under FuncCtx so the host never reads its stores.  So kernels must
// still be idempotent at block granularity — true of this entire suite
// (each block writes a disjoint output region from inputs that the launch
// does not mutate).
//
// Every step runs each block through BlockRunner::run, whether or not the
// kernel calls __syncthreads: as on the G80, a barrier is just an
// instruction, and nothing declares it at launch time.  The runner sees for
// itself which threads park, so a barrier-free block runs on one fiber.
// Nor does a launch pick the fiber switch engine: the build does
// (exec/fiber.h), as the G80 runs every kernel on one thread scheduler.
//
// For very large grids (the 4096x4096 matmul of §4) callers disable the
// functional runs and rely on the trace sample for timing; functional
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
#include <span>
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

// Ctx instantiation for a g80check sanitized sweep.
using SanitizeCtx = Ctx<SanitizerRecorder>;

struct LaunchOptions {
  // Registers per thread, as the CUDA 0.8 compiler would report (cubin
  // metadata).  The paper's kernels state these; our kernels carry the
  // paper's numbers where given and plausible estimates otherwise.
  int regs_per_thread = 10;
  // Number of blocks to trace for the timing model.  0 traces nothing: the
  // launch runs configuration validation, the sweep and occupancy (from the
  // sweep's shared-memory footprint) only, and stats.trace / stats.timing
  // stay empty.  Kernel outputs are bit-identical either way — a traced
  // block stores exactly what FuncCtx would.  An armed g80resil modeled
  // watchdog (resilience.modeled_timeout_s > 0) raises the count to 1 so it
  // still sees a modeled time.
  int sample_blocks = 4;
  // Run under FuncCtx every block the trace step did not run, producing the
  // kernel's results.  With false, only the traced blocks (and, when
  // sanitizing, the sanitized sweep) run.
  bool functional = true;
  // g80check: opt-in barrier-divergence and shared-memory-race validation
  // (plus deterministic fault injection).  The sweep then runs every block
  // under SanitizeCtx instead of FuncCtx, and its stores are the results —
  // unless the report is dirty or a fault is armed: then a functional
  // launch reruns the whole grid under FuncCtx.
  SanitizerOptions sanitize;
  // The name the launch's owner reports it under: g80rt labels the timeline
  // span with it and keys the runtime's profiler and scope session by it
  // ("" -> "kernel").  The launch itself never reads it.
  std::string kernel_name;
  // g80rt block scheduling: run the traced and functional blocks, which are
  // independent, across this pool's workers.  nullptr falls back to the
  // ambient pool (set_ambient_launch_pool / ScopedLaunchPool), and with
  // neither the sequential path runs.  Kernel outputs and LaunchStats are
  // bit-identical either way: each thread running blocks uses its own
  // BlockRunner (fibers + shared-memory arena, kept across launches) and
  // per-block traces merge in sample order.  A sanitized sweep stays
  // sequential: the shadow memory is reset for every block, but the report
  // is launch-wide — its dedup set of diagnostics, its max_findings cap and
  // the block order of its findings.
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
  // Findings from the g80check sweep (empty unless sanitize.enabled).
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
// first and last block so grid-edge partial warps are represented.  The
// indices ascend without repeats, so the sweep can binary-search them.
std::vector<std::uint64_t> pick_sample_blocks(std::uint64_t total, int n);

// The calling thread's BlockRunner for SMs with `smem_capacity` bytes of
// shared memory: built on the thread's first launch for that capacity and
// kept until the thread exits, so its fibers, and their mapped stacks, carry
// over from launch to launch.  Runners are cached per OS thread, never per
// WorkerPool slot: slot numbers are per job, and two streams sharing a pool
// run their own slot 1 at the same time on different helper threads.
BlockRunner& thread_block_runner(std::size_t smem_capacity);

// Runs the blocks of one launch's steps on the borrowed per-thread
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
  // this launch's cancel token and `observer` (the block's trace collector,
  // the sanitizer, or none): the runner outlives the launch, so whatever a
  // step that threw left attached is dropped here.  The footprint is stored
  // right after the run, while this thread still holds the runner — once
  // the step drains, a helper thread may already be running another
  // stream's kernel on it.
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
// the sweep.  `att` carries the g80resil attempt context — the
// watchdog's cancellation token (threaded into every between-block and
// barrier-release cancellation point) and the graceful-degradation level:
//   level 0  exactly the configuration the caller asked for;
//   level 1  block parallelism abandoned (sequential blocks on the caller,
//            sidestepping a starved or wedged worker pool);
//   level 2  additionally no sanitizing and a trace sample of at most
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
    // ---- Trace the samples ----
    // Each sampled block is traced into its slot's private TraceArena and
    // analyzed (coalescing / bank conflicts / constant broadcast /
    // texture cache) into a self-contained BlockTrace, stored by sample
    // index.  The merge therefore happens in sample order no matter which
    // worker finished first, keeping TraceSummary bit-identical to the
    // sequential path.  The block's TraceCollector analyzes rows while the
    // block runs: at every barrier release (as the runner's barrier
    // observer) and as each warp's last lane exits, so the arena holds
    // about one barrier interval of rows.
    const auto samples =
        detail::pick_sample_blocks(total_blocks, sample_blocks);
    if (!samples.empty()) {
      std::vector<BlockTrace> traces(samples.size());
      // Each slot owns a TraceArena whose SoA row capacity carries across
      // the blocks it traces, so steady-state recording allocates nothing.
      std::vector<TraceArena> slot_arenas(static_cast<std::size_t>(slots));
      detail::for_each_block(
          pool, samples.size(),
          [&](int slot, std::uint64_t i) {
            auto& arena = slot_arenas[static_cast<std::size_t>(slot)];
            arena.begin_block(spec, threads);
            TraceCollector collector(spec, arena);
            runners.run_block(
                slot, samples[i],
                [&](BlockEnv& env, int tid) {
                  TraceCtx ctx(&env, tid, LaneRecorder(arena, tid));
                  kernel(ctx, args...);
                  collector.lane_exited(tid);
                },
                &collector);
            traces[i] = collector.finish();
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
      // rejected before the (expensive) sweep runs.
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

    // ---- The sweep ----
    // One rule picks the single context each block runs under: SanitizeCtx
    // for every block when sanitizing, else none for a block in `skip` (a
    // sample, whose traced run already did the real stores), else FuncCtx.
    // Blocks are independent (each writes a disjoint output region, see the
    // header comment), so functional blocks distribute freely across worker
    // slots; within a block, fiber scheduling is unchanged, so results stay
    // bit-identical to sequential execution.  A sanitized sweep runs
    // sequentially on slot 0, as its report is launch-wide (see
    // LaunchOptions::pool).  Either way the gap between blocks is a
    // cancellation point.
    auto sweep = [&](Sanitizer* san, std::span<const std::uint64_t> skip) {
      detail::for_each_block(
          san != nullptr ? nullptr : pool, total_blocks,
          [&](int slot, std::uint64_t b) {
            if (san != nullptr) {
              san->begin_block(b);
              runners.run_block(
                  slot, b,
                  [&](BlockEnv& env, int tid) {
                    SanitizeCtx ctx(&env, tid, SanitizerRecorder(san, tid));
                    kernel(ctx, args...);
                  },
                  san);
            } else if (!std::binary_search(skip.begin(), skip.end(), b)) {
              runners.run_block(slot, b, [&](BlockEnv& env, int tid) {
                FuncCtx ctx(&env, tid, NullRecorder{});
                kernel(ctx, args...);
              });
            }
          },
          cancel);
    };

    if (sanitize_enabled) {
      // Shadow memory watches every shared access, the runner reports every
      // barrier release, and any configured fault injection perturbs this
      // sweep only.
      Sanitizer san(opt.sanitize, spec.shared_mem_per_sm);
      sweep(&san, {});
      stats.sanitizer = san.report();
      if (!stats.sanitizer.clean()) {
        dev.record_status(stats.sanitizer.findings.front().status);
        if (opt.sanitize.abort_on_error) {
          throw StatusError(stats.sanitizer.findings.front().status,
                            stats.sanitizer.summary());
        }
      }
      // The host must not read the stores of a dirty or faulted sweep: a
      // functional launch reruns every block, the samples too, under
      // FuncCtx, which rewrites every output.
      if (opt.functional &&
          (!stats.sanitizer.clean() || opt.sanitize.fault.armed())) {
        sweep(nullptr, {});
      }
    } else if (opt.functional) {
      sweep(nullptr, samples);
    }

    // A launch that did not sanitize (fallback level 2) leaves
    // blocks_checked short of this, so the report is not clean.
    if (opt.sanitize.enabled) stats.sanitizer.blocks_requested = total_blocks;

    // Sample-free launch: nothing was traced, so take the shared-memory
    // footprint from the sweep (the static __shared__ layout is identical
    // under every context) and fill in occupancy — the one model output
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
