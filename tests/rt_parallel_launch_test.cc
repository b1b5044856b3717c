// Block-parallel launch determinism: results and LaunchStats must be
// bit-identical whether the trace/functional passes run sequentially or
// across a WorkerPool — the contract that makes g80rt's parallelism safe to
// enable everywhere.  Also covers the per-block merge of the memory-system
// analyzers and deterministic error selection under parallel execution.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
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
  // Without a trace sample the footprint comes from the functional pass.
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
