// Block-parallel launch determinism: results and LaunchStats must be
// bit-identical whether the traced and functional blocks run sequentially
// or across a WorkerPool — the contract that makes g80rt's parallelism safe
// to enable everywhere.  Also covers the per-block merge of the
// memory-system analyzers, deterministic error selection under parallel
// execution, and the one context each block of a launch runs under.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/matmul/matmul.h"
#include "apps/suite.h"
#include "common/error.h"
#include "core/app.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "rt/runtime.h"

namespace g80 {
namespace {

// Full-depth LaunchStats comparison — every counter the trace pass merges
// and every value the models derive from them.  Exact equality, no
// tolerances: the parallel path must reproduce the sequential path bit for
// bit.
void expect_stats_identical(const LaunchStats& a, const LaunchStats& b) {
  EXPECT_EQ(a.smem_per_block, b.smem_per_block);
  EXPECT_EQ(a.regs_per_thread, b.regs_per_thread);

  EXPECT_EQ(a.occupancy.blocks_per_sm, b.occupancy.blocks_per_sm);
  EXPECT_EQ(a.occupancy.active_threads_per_sm, b.occupancy.active_threads_per_sm);
  EXPECT_EQ(a.occupancy.active_warps_per_sm, b.occupancy.active_warps_per_sm);
  EXPECT_EQ(a.occupancy.limiter, b.occupancy.limiter);

  EXPECT_EQ(a.trace.num_warps, b.trace.num_warps);
  EXPECT_EQ(a.trace.num_blocks, b.trace.num_blocks);
  const WarpTrace& ta = a.trace.total;
  const WarpTrace& tb = b.trace.total;
  EXPECT_EQ(ta.ops.counts, tb.ops.counts);
  EXPECT_EQ(ta.lane_flops, tb.lane_flops);
  EXPECT_EQ(ta.global_instructions, tb.global_instructions);
  EXPECT_EQ(ta.global.transactions, tb.global.transactions);
  EXPECT_EQ(ta.global.bytes, tb.global.bytes);
  EXPECT_EQ(ta.global.scattered_bytes, tb.global.scattered_bytes);
  EXPECT_EQ(ta.useful_global_bytes, tb.useful_global_bytes);
  EXPECT_EQ(ta.coalesced_instructions, tb.coalesced_instructions);
  EXPECT_EQ(ta.shared_extra_passes, tb.shared_extra_passes);
  EXPECT_EQ(ta.const_extra_passes, tb.const_extra_passes);
  EXPECT_EQ(ta.texture_hits, tb.texture_hits);
  EXPECT_EQ(ta.texture_misses, tb.texture_misses);
  EXPECT_EQ(ta.branches, tb.branches);
  EXPECT_EQ(ta.divergent_branches, tb.divergent_branches);

  EXPECT_EQ(a.timing.kernel_cycles, b.timing.kernel_cycles);
  EXPECT_EQ(a.timing.seconds, b.timing.seconds);
  EXPECT_EQ(a.timing.gflops, b.timing.gflops);
  EXPECT_EQ(a.timing.dram_gbs, b.timing.dram_gbs);
  EXPECT_EQ(a.timing.bottleneck, b.timing.bottleneck);
}

// ---- §4 matmul, sequential vs pool --------------------------------------------

TEST(ParallelLaunch, MatmulBitExactAcrossWorkerCounts) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 42);
  const apps::MatmulTiledKernel kernel{n, tile, /*unrolled=*/true};

  auto run = [&](WorkerPool* pool, LaunchStats* stats) {
    Device dev;
    auto a = dev.alloc<float>(wl.a.size());
    auto b = dev.alloc<float>(wl.b.size());
    auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
    LaunchOptions opt;
    opt.regs_per_thread = 9;  // the paper's value for tiled+unrolled
    opt.pool = pool;
    *stats = launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                    kernel, a, b, c);
    return c.copy_to_host();
  };

  LaunchStats seq_stats;
  const std::vector<float> seq = run(nullptr, &seq_stats);
  for (int workers : {2, 4}) {
    WorkerPool pool(workers);
    LaunchStats par_stats;
    const std::vector<float> par = run(&pool, &par_stats);
    ASSERT_EQ(par.size(), seq.size());
    EXPECT_EQ(std::memcmp(par.data(), seq.data(),
                          seq.size() * sizeof(float)),
              0)
        << workers << " workers";
    expect_stats_identical(seq_stats, par_stats);
  }
}

// ---- Per-block memory-system merge --------------------------------------------

// Even blocks load coalesced, odd blocks load with a scattering stride: the
// per-block analyzers must keep the patterns separate and merge them in
// sample order, so the mixed counters match the sequential pass exactly.
struct PerBlockPatternKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto I = ctx.global(in);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v;
    if (ctx.branch(ctx.block_idx().x % 2 == 1)) {
      v = I.ld((static_cast<std::size_t>(i) * 33) % I.size());
    } else {
      v = I.ld(i);
    }
    O.st(i, v);
  }
};

TEST(ParallelLaunch, MemSystemCountersMergePerBlock) {
  auto run = [&](WorkerPool* pool) {
    Device dev;
    auto in = dev.alloc<float>(1024);
    auto out = dev.alloc<float>(1024);
    in.fill(1.0f);
    LaunchOptions opt;
    opt.sample_blocks = 16;  // trace all 16 blocks, both patterns
    opt.pool = pool;
    return launch(dev, Dim3(16), Dim3(64), opt, PerBlockPatternKernel{}, in,
                  out);
  };
  const LaunchStats seq = run(nullptr);
  WorkerPool pool(4);
  const LaunchStats par = run(&pool);
  expect_stats_identical(seq, par);
  // Sanity: the mixed pattern really contributed both kinds of blocks.
  EXPECT_GT(seq.trace.coalesced_fraction(), 0.0);
  EXPECT_LT(seq.trace.coalesced_fraction(), 1.0);
  EXPECT_GT(seq.trace.total.global.scattered_bytes, 0u);
}

// ---- Deterministic failure under parallel execution ---------------------------

struct FailLateBlocksKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(ctx.block_idx().x >= 3)) {
      // Out of bounds, at an offset unique to this block: which block's
      // failure surfaces is observable through the message.
      O.st(O.size() + ctx.block_idx().x, 0.0f);
    } else {
      O.st(i, 1.0f);
    }
  }
};

TEST(ParallelLaunch, LowestBlockErrorWinsDeterministically) {
  auto run = [&](WorkerPool* pool) -> std::pair<Status, std::string> {
    Device dev;
    auto out = dev.alloc<float>(256);
    LaunchOptions opt;
    opt.pool = pool;
    try {
      launch(dev, Dim3(8), Dim3(32), opt, FailLateBlocksKernel{}, out);
    } catch (const StatusError& e) {
      return {e.status(), e.what()};
    }
    return {Status::kSuccess, "no error raised"};
  };
  const auto seq = run(nullptr);
  EXPECT_EQ(seq.first, Status::kInvalidAddress);
  for (int trial = 0; trial < 3; ++trial) {
    WorkerPool pool(4);
    const auto par = run(&pool);
    EXPECT_EQ(par.first, seq.first);
    EXPECT_EQ(par.second, seq.second);  // same block's failure every time
  }
}

// ---- Whole-suite bit-exactness under the ambient pool -------------------------

TEST(ParallelLaunch, SuiteBitExactUnderAmbientPool) {
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  WorkerPool pool(4);
  for (const auto& app : apps::make_suite()) {
    const std::string name = app->info().name;
    const AppResult seq = app->run(spec, RunScale::kQuick);
    AppResult par;
    {
      ScopedLaunchPool scoped(&pool);
      par = app->run(spec, RunScale::kQuick);
    }
    // Wall-clock fields (cpu_*_seconds) vary run to run; everything derived
    // from simulated execution must not.
    EXPECT_EQ(seq.validated, par.validated) << name;
    EXPECT_EQ(seq.max_rel_err, par.max_rel_err) << name;
    EXPECT_EQ(seq.launches, par.launches) << name;
    EXPECT_EQ(seq.gpu_kernel_seconds, par.gpu_kernel_seconds) << name;
    EXPECT_EQ(seq.transfer_seconds, par.transfer_seconds) << name;
    expect_stats_identical(seq.representative, par.representative);
  }
}

// ---- Every block runs once ---------------------------------------------------

enum CtxKind { kTraced, kSanitized, kFunctional, kNumCtxKinds };

template <class C>
constexpr CtxKind ctx_kind() {
  if constexpr (std::is_same_v<C, TraceCtx>) {
    return kTraced;
  } else if constexpr (std::is_same_v<C, SanitizeCtx>) {
    return kSanitized;
  } else {
    static_assert(std::is_same_v<C, FuncCtx>);
    return kFunctional;
  }
}

// Reverses each block through shared memory and counts, per block, how
// often the block ran under each context.  `racy` adds a write-write race
// on a word the outputs never read, so a dirty sanitize leaves the results
// well defined.
struct CountContextsKernel {
  std::atomic<int>* runs;  // [block][CtxKind]
  bool racy = false;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto O = ctx.global(out);
    const int n = static_cast<int>(ctx.block_dim().x);
    auto S = ctx.template shared<int>(2 * n);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int b = static_cast<int>(ctx.block_idx().x);
    if (t == 0) runs[b * kNumCtxKinds + ctx_kind<Ctx>()].fetch_add(1);
    S.st(t, b * n + t + 1);
    if (racy) S.st(2 * n - 1, t);
    ctx.sync();
    O.st(b * n + t, S.ld(n - 1 - t));
  }
};

TEST(ParallelLaunch, EveryBlockRunsUnderOneContext) {
  constexpr int kBlocks = 8, kThreads = 32, kOut = kBlocks * kThreads;
  // kFaulted redirects thread 3's first shared store into the unread upper
  // half in every block: the sweep's outputs are wrong, yet its report is
  // clean.
  enum Sanitize { kOff, kClean, kDirty, kFaulted };

  auto run = [&](const LaunchOptions& opt, bool racy,
                 std::array<std::array<int, kNumCtxKinds>, kBlocks>* counts,
                 LaunchStats* stats) {
    std::array<std::atomic<int>, kBlocks * kNumCtxKinds> runs{};
    Device dev;
    auto out = dev.alloc<int>(kOut);
    *stats = launch(dev, Dim3(kBlocks), Dim3(kThreads), opt,
                    CountContextsKernel{runs.data(), racy}, out);
    for (int b = 0; b < kBlocks; ++b)
      for (int k = 0; k < kNumCtxKinds; ++k)
        (*counts)[b][k] = runs[b * kNumCtxKinds + k].load();
    return out.copy_to_host();
  };

  std::array<std::array<int, kNumCtxKinds>, kBlocks> counts{};
  LaunchStats stats;
  LaunchOptions ref_opt;
  ref_opt.sample_blocks = 0;
  const std::vector<int> want = run(ref_opt, false, &counts, &stats);

  WorkerPool narrow(1), wide(4);
  for (WorkerPool* pool : {&narrow, &wide}) {
    for (int samples : {0, 1, 4, kBlocks}) {
      const auto sampled = detail::pick_sample_blocks(kBlocks, samples);
      for (bool functional : {true, false}) {
        for (Sanitize mode : {kOff, kClean, kDirty, kFaulted}) {
          LaunchOptions opt;
          opt.pool = pool;
          opt.sample_blocks = samples;
          opt.functional = functional;
          opt.sanitize.enabled = mode != kOff;
          opt.sanitize.abort_on_error = false;
          if (mode == kFaulted) {
            opt.sanitize.fault.corrupt_store_tid = 3;
            opt.sanitize.fault.corrupt_offset_words = kThreads;
            opt.sanitize.fault.block = -1;
          }
          const std::vector<int> got =
              run(opt, mode == kDirty, &counts, &stats);
          const std::string where =
              "width " + std::to_string(pool->width()) + ", samples " +
              std::to_string(samples) + ", functional " +
              std::to_string(functional) + ", sanitize mode " +
              std::to_string(mode);
          ASSERT_EQ(stats.sanitizer.clean(), mode != kDirty) << where;

          const bool rerun = functional && (mode == kDirty || mode == kFaulted);
          for (int b = 0; b < kBlocks; ++b) {
            const bool traced = std::find(sampled.begin(), sampled.end(),
                                          b) != sampled.end();
            EXPECT_EQ(counts[b][kTraced], traced ? 1 : 0) << where;
            EXPECT_EQ(counts[b][kSanitized], mode != kOff ? 1 : 0) << where;
            const int func = mode == kOff ? (functional && !traced ? 1 : 0)
                                          : (rerun ? 1 : 0);
            EXPECT_EQ(counts[b][kFunctional], func) << where << ", block " << b;
          }
          // A sweep whose stores the host may read leaves the outputs of a
          // sample-free, unsanitized launch.
          if (functional || mode == kClean) {
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(int)),
                      0)
                << where;
          } else if (mode == kFaulted) {
            // The fault bites: reading these stores would be wrong.
            EXPECT_NE(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(int)),
                      0)
                << where;
          }
        }
      }
    }
  }
}

// ---- Streams sharing a pool --------------------------------------------------

// Stages `words` ints through shared memory, so two instances with different
// sizes have different __shared__ footprints.
struct SharedFootprintKernel {
  int words;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto O = ctx.global(out);
    auto S = ctx.template shared<int>(words);
    const int t = static_cast<int>(ctx.thread_idx().x);
    for (int w = t; w < words; w += static_cast<int>(ctx.block_dim().x))
      S.st(w, w);
    ctx.sync();
    O.st(ctx.global_thread_x(), S.ld((t * 7) % words));
  }
};

TEST(ParallelLaunch, StreamsSharingAPoolKeepTheirSharedFootprints) {
  // Helper threads run both streams' blocks, one after the other, on their
  // one cached runner: each launch must still report its own footprint.
  constexpr int kBlocks = 32, kThreads = 64, kRounds = 50;
  const SharedFootprintKernel small{256}, large{2048};  // 1 KiB and 8 KiB
  Device dev;
  rt::Runtime r(dev, {.workers = 4});
  const rt::Stream sa = r.stream_create();
  const rt::Stream sb = r.stream_create();
  auto out_a = dev.alloc<int>(kBlocks * kThreads);
  auto out_b = dev.alloc<int>(kBlocks * kThreads);
  // Without a trace sample the footprint comes from the sweep.
  for (int samples : {4, 0}) {
    LaunchOptions opt;
    opt.sample_blocks = samples;
    auto sequential = [&](const SharedFootprintKernel& k) {
      Device seq_dev;
      auto out = seq_dev.alloc<int>(kBlocks * kThreads);
      return launch(seq_dev, Dim3(kBlocks), Dim3(kThreads), opt, k, out);
    };
    const LaunchStats want_a = sequential(small);
    const LaunchStats want_b = sequential(large);
    ASSERT_NE(want_a.smem_per_block, want_b.smem_per_block);
    ASSERT_NE(want_a.occupancy.blocks_per_sm, want_b.occupancy.blocks_per_sm);

    std::vector<LaunchStats> got_a(kRounds), got_b(kRounds);
    for (int round = 0; round < kRounds; ++round) {
      r.launch_async(sa, Dim3(kBlocks), Dim3(kThreads), opt, &got_a[round],
                     small, out_a);
      r.launch_async(sb, Dim3(kBlocks), Dim3(kThreads), opt, &got_b[round],
                     large, out_b);
    }
    r.device_synchronize();
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [got, want] : {std::pair{&got_a[round], &want_a},
                                      std::pair{&got_b[round], &want_b}}) {
        EXPECT_EQ(got->smem_per_block, want->smem_per_block) << round;
        EXPECT_EQ(got->occupancy.blocks_per_sm, want->occupancy.blocks_per_sm);
        EXPECT_EQ(got->occupancy.active_warps_per_sm,
                  want->occupancy.active_warps_per_sm);
        EXPECT_EQ(got->occupancy.limiter, want->occupancy.limiter);
      }
    }
  }
}

}  // namespace
}  // namespace g80
