// g80rt throughput benchmark: what the runtime's two levers actually buy.
//
// 1. Interpreter scalability — the §4 matmul (tiled+unrolled, full grid):
//    the default launch at 1/2/4/8 workers, on the build's fiber engine
//    (exec/fiber.h).  The 1-worker run is the reference: every other run's
//    outputs and modeled stats must be bit-identical to it, or the bench
//    FAILS (non-zero exit, which run_benches.sh turns into a flagged
//    failure document).  Wall-speed regressions of this launch are guarded
//    by g80bench's `matmul512` workload, not here.
//    NOTE on reading the curve: worker scaling buys wall time only up to the
//    host's core count; on a single-core host the whole curve is flat.
// 2. Streams — the same four h2d→kernel→d2h pipelines pushed through one
//    stream vs four, with measured wall-clock and the modeled
//    serialized-vs-overlapped totals from the timeline.
// 3. Per-launch setup — a launch so small (n=32 matmul, 2x2 blocks) that its
//    wall time is mostly fixed cost: p50 over 200 launches on one thread,
//    and the fiber stacks each steady-state launch maps, gated at exactly 0
//    (launches keep one BlockRunner per thread, fibers included).
// 4. Barrier handoff — BlockRunner::run driven directly, as g80bench's exec
//    panel does: 256 blocks x 256 threads x 64 barriers on one thread, with
//    a body that does next to nothing between barriers, so the wall time is
//    the fiber switch and the runner's barrier bookkeeping.  Like the tiled
//    matmul, the body parks at two barrier sites in turn, so each thread
//    resumes at a different site than the one its predecessor parked at;
//    with one site a switch ending in `ret` is predicted right too, and the
//    row would miss what the switch's branch costs (fiber_ctx.S).  The
//    resume and barrier-generation counts are exact (gated by the
//    baseline); ns per resume is a trend.
//
// Emits the standard g80bench-result document (bench/harness.h); wall-clock
// metrics carry the `wall_` prefix so the regression checker skips them.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <vector>

#include "apps/matmul/matmul.h"
#include "bench/harness.h"
#include "common/str.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"
#include "exec/worker_pool.h"
#include "prof/profiler.h"
#include "rt/runtime.h"
#include "tests/trace_digest.h"

using namespace g80;
using namespace g80::apps;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto I = ctx.global(in);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, ctx.mad(I.ld(i), 2.0f, 1.0f));
  }
};

}  // namespace

// Pinned trace digest of the traced launch below, recorded when the
// per-lane and batched recorders both produced it.
constexpr std::uint64_t kTracedDigest = 0xe217d95445b9144full;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "rt_throughput");
  // ---- Part 1: interpreter scalability over the §4 matmul ----
  const int n = 512, tile = 16;
  const auto wl = MatmulWorkload::generate(n, h.seed());
  const MatmulTiledKernel kernel{n, tile, /*unrolled=*/true};

  struct Run {
    double seconds = 0;
    bool bit_identical = true;
    double timing_seconds = 0;
  };
  std::vector<float> reference;
  double reference_timing = 0;

  // One timed launch.  The first call defines the reference outputs and
  // modeled time; every later call is compared against it byte-for-byte.
  auto run_matmul = [&](int workers) -> Run {
    Device dev;
    auto a = dev.alloc<float>(wl.a.size());
    auto b = dev.alloc<float>(wl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);

    WorkerPool pool(workers);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.pool = workers > 1 ? &pool : nullptr;

    const double t0 = now_seconds();
    const LaunchStats stats = launch(dev, Dim3(n / tile, n / tile),
                                     Dim3(tile, tile), opt, kernel, a, b, c);
    const double wall = now_seconds() - t0;

    const std::vector<float> out = c.copy_to_host();
    Run r{wall, true, stats.timing.seconds};
    if (reference.empty()) {
      reference = out;
      reference_timing = stats.timing.seconds;
    } else {
      r.bit_identical =
          out.size() == reference.size() &&
          std::memcmp(out.data(), reference.data(),
                      reference.size() * sizeof(float)) == 0 &&
          stats.timing.seconds == reference_timing;
    }
    return r;
  };

  std::vector<std::pair<int, Run>> traced;
  for (int workers : {1, 2, 4, 8})
    traced.emplace_back(workers, run_matmul(workers));

  // ---- Part 1b: the traced path ----
  // A profiler-attached launch with a deep trace sample and no functional
  // pass, so the wall time is recorder dispatch, trace storage and the
  // memory analyzers.  Its trace digest (tests/trace_digest.h's scheme:
  // the TraceSummary, modeled time and derived counters) is pinned; exact
  // work counters go to the baseline.
  LaunchStats traced_stats;
  double traced_seconds = 0;
  std::uint64_t traced_digest = 0;
  {
    Device dev;
    auto a = dev.alloc<float>(wl.a.size());
    auto b = dev.alloc<float>(wl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
    prof::Profiler p;
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.functional = false;  // isolate the traced pipeline
    opt.sample_blocks = 64;
    const double t0 = now_seconds();
    traced_stats = launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                          kernel, a, b, c);
    p.record_launch("matmul_traced", dev.spec(), traced_stats);
    traced_seconds = now_seconds() - t0;
    traced_digest = launch_digest(dev.spec(), traced_stats, {});
  }
  const bool traced_identical = traced_digest == kTracedDigest;

  // ---- Part 2: one stream vs four ----
  const int sn = 1 << 18;  // 1 MB buffers per pipeline
  std::vector<float> host(sn, 1.0f);
  LaunchOptions sopt;

  auto run_pipelines = [&](int nstreams, double* modeled_total,
                           double* modeled_serialized) {
    Device dev;
    rt::Runtime r(dev, {.workers = 1});
    std::vector<rt::Stream> streams;
    for (int i = 0; i < nstreams; ++i) streams.push_back(r.stream_create());
    std::vector<DeviceBuffer<float>> ins, outs;
    std::vector<std::vector<float>> backs(4);
    for (int i = 0; i < 4; ++i) {
      ins.push_back(dev.alloc<float>(sn));
      outs.push_back(dev.alloc<float>(sn));
    }
    // Breadth-first issue: engines serve ops in issue order, so batching a
    // whole pipeline per stream would leave the copy engine with nothing to
    // overlap a kernel with (the classic depth-first-issue pitfall on
    // single-queue hardware).
    const double t0 = now_seconds();
    for (int i = 0; i < 4; ++i)
      r.memcpy_h2d_async(streams[i % nstreams], ins[i], host);
    for (int i = 0; i < 4; ++i)
      r.launch_async(streams[i % nstreams], Dim3(sn / 256), Dim3(256), sopt,
                     nullptr, ScaleKernel{}, ins[i], outs[i]);
    for (int i = 0; i < 4; ++i)
      r.memcpy_d2h_async(streams[i % nstreams], backs[i], outs[i]);
    r.device_synchronize();
    const double wall = now_seconds() - t0;
    *modeled_total = r.modeled_total_seconds();
    *modeled_serialized = r.modeled_serialized_seconds();
    return wall;
  };

  double one_total = 0, one_serial = 0, four_total = 0, four_serial = 0;
  const double one_wall = run_pipelines(1, &one_total, &one_serial);
  const double four_wall = run_pipelines(4, &four_total, &four_serial);

  // ---- Part 3: per-launch setup ----
  constexpr int kSmallLaunches = 200;
  double small_p50_us = 0;
  double small_stacks_per_launch = 0;
  {
    const int sn_mat = 32;
    const auto swl = MatmulWorkload::generate(sn_mat, h.seed());
    const MatmulTiledKernel skernel{sn_mat, tile, /*unrolled=*/true};
    Device dev;
    auto a = dev.alloc<float>(swl.a.size());
    auto b = dev.alloc<float>(swl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(sn_mat) * sn_mat);
    a.copy_from_host(swl.a);
    b.copy_from_host(swl.b);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.sample_blocks = 0;
    auto small_launch = [&] {
      launch(dev, Dim3(sn_mat / tile, sn_mat / tile), Dim3(tile, tile), opt,
             skernel, a, b, c);
    };
    small_launch();  // warm-up: this thread's runner and fibers
    std::vector<double> us(kSmallLaunches);
    const std::uint64_t stacks_before = Fiber::stacks_mapped();
    for (double& t : us) {
      const double t0 = now_seconds();
      small_launch();
      t = (now_seconds() - t0) * 1e6;
    }
    small_stacks_per_launch =
        static_cast<double>(Fiber::stacks_mapped() - stacks_before) /
        kSmallLaunches;
    std::nth_element(us.begin(), us.begin() + kSmallLaunches / 2, us.end());
    small_p50_us = us[kSmallLaunches / 2];
  }

  // ---- Part 4: barrier handoff ----
  constexpr int kHandoffBlocks = 256, kHandoffThreads = 256,
                kHandoffBarriers = 64, kHandoffTrials = 5;
  std::uint64_t handoff_resumes = 0, handoff_generations = 0;
  double handoff_ns_per_resume = 0;
  {
    BlockRunner runner(kHandoffThreads, 16 * 1024);
    std::vector<int> per_thread(kHandoffThreads);
    const std::function<void(int)> body = [&](int tid) {
      for (int k = 0; k < kHandoffBarriers / 2; ++k) {
        per_thread[tid] += k;
        runner.sync(tid);
        per_thread[tid] ^= k;
        runner.sync(tid);
      }
    };
    runner.run(kHandoffThreads, body);  // warm-up: builds the fibers
    std::vector<double> ns(kHandoffTrials);
    for (double& t : ns) {
      handoff_resumes = handoff_generations = 0;
      const double t0 = now_seconds();
      for (int b = 0; b < kHandoffBlocks; ++b) {
        runner.run(kHandoffThreads, body);
        const auto barriers =
            static_cast<std::uint64_t>(runner.barriers_executed());
        handoff_resumes += kHandoffThreads * (barriers + 1);
        handoff_generations += barriers;
      }
      t = (now_seconds() - t0) * 1e9 / static_cast<double>(handoff_resumes);
    }
    std::nth_element(ns.begin(), ns.begin() + kHandoffTrials / 2, ns.end());
    handoff_ns_per_resume = ns[kHandoffTrials / 2];
  }

  // ---- Results ----
  bool all_identical = true;
  h.human() << "interpreter scalability, " << n << "x" << n << " matmul ("
            << (n / tile) * (n / tile) << " blocks):\n";
  for (const auto& [workers, r] : traced) {
    all_identical = all_identical && r.bit_identical;
    const double speedup = traced.front().second.seconds / r.seconds;
    h.human() << "  traced   w" << workers << ": " << fixed(r.seconds, 4)
              << " s wall (vs w1 " << fixed(speedup, 2)
              << "x), bit identical: " << (r.bit_identical ? "yes" : "NO")
              << "\n";
    auto& row = h.result(cat("block_parallel_w", workers));
    row.set("wall_seconds", r.seconds);
    row.set("wall_speedup", speedup);
    row.set("bit_identical", r.bit_identical ? 1 : 0);
    row.set("modeled_kernel_seconds", r.timing_seconds);
  }
  h.human() << "traced path (prof attached, sample_blocks=64, no functional "
               "pass): "
            << fixed(traced_seconds, 4) << " s wall, "
            << traced_stats.trace.regrouped_streams
            << " regrouped streams, digest "
            << (traced_identical ? "matches the pin" : "DIFFERS") << "\n";
  {
    // Gate row for the traced path: exact work counters the regression
    // checker diffs, and bit_identical against the pinned digest.  The
    // traced path's wall-speed guard is g80bench's `checked` workload.
    auto& row = h.result("traced_gate");
    row.set("wall_seconds", traced_seconds);
    row.set("traced_warps", static_cast<double>(traced_stats.trace.num_warps));
    row.set("regrouped_streams",
            static_cast<double>(traced_stats.trace.regrouped_streams));
    row.set("global_instructions",
            static_cast<double>(traced_stats.trace.total.global_instructions));
    row.set("bit_identical", traced_identical ? 1 : 0);
  }

  const double saving_pct = 100.0 * (four_serial - four_total) /
                            (four_serial > 0 ? four_serial : 1.0);
  h.human() << "streams (4 pipelines, "
            << static_cast<std::uint64_t>(sn) * sizeof(float)
            << " B/copy): 1 stream " << fixed(one_total, 6)
            << " s modeled, 4 streams " << fixed(four_total, 6)
            << " s modeled (serialized " << fixed(four_serial, 6)
            << " s, overlap saves " << fixed(saving_pct, 1) << "%)\n";
  {
    auto& row = h.result("streams_one");
    row.set("wall_seconds", one_wall);
    row.set("modeled_seconds", one_total);
    row.set("modeled_serialized_seconds", one_serial);
  }
  {
    auto& row = h.result("streams_four");
    row.set("wall_seconds", four_wall);
    row.set("modeled_seconds", four_total);
    row.set("modeled_serialized_seconds", four_serial);
    row.set("modeled_overlap_saving_pct", saving_pct);
  }

  h.human() << "small launch (n=32 matmul, 2x2 blocks, no trace): p50 "
            << fixed(small_p50_us, 1) << " us over " << kSmallLaunches
            << " launches, " << fixed(small_stacks_per_launch, 3)
            << " fiber stacks mapped per launch\n";
  {
    auto& row = h.result("small_launch");
    row.set("wall_p50_us", small_p50_us);
    row.set("stacks_mapped_per_launch", small_stacks_per_launch);
  }

  h.human() << "barrier handoff (" << kHandoffBlocks << " blocks x "
            << kHandoffThreads << " threads x " << kHandoffBarriers
            << " barriers, one thread): " << handoff_resumes << " resumes, "
            << handoff_generations << " barrier generations, p50 "
            << fixed(handoff_ns_per_resume, 1) << " ns per resume over "
            << kHandoffTrials << " trials\n";
  {
    auto& row = h.result("barrier_handoff");
    row.set("resumes", static_cast<double>(handoff_resumes));
    row.set("barrier_generations", static_cast<double>(handoff_generations));
    row.set("wall_ns_per_resume", handoff_ns_per_resume);
  }

  Device spec_dev;
  const int rc = h.finish(spec_dev.spec());
  if (!all_identical) {
    std::cerr << "FAIL: outputs/stats diverged from the sequential reference\n";
    return 1;
  }
  if (!traced_identical) {
    std::cerr << "FAIL: traced-path digest "
              << std::hex << traced_digest << " != pinned " << kTracedDigest
              << std::dec << "\n";
    return 1;
  }
  if (small_stacks_per_launch != 0) {
    std::cerr << "FAIL: a steady-state launch mapped "
              << small_stacks_per_launch << " fiber stacks (want 0)\n";
    return 1;
  }
  return rc;
}
