// g80prof counter correctness on hand-computable kernels: every expectation
// below is a number a reader can derive from the G80 rules — one coalesced
// 16-thread load is exactly 1 gld_coalesced, a stride-2 shared access by a
// half-warp is exactly 1 warp_serialize replay, and so on — plus the
// aggregation and zero-perturbation contracts of the Profiler itself.
#include <gtest/gtest.h>

#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "prof/counters.h"
#include "prof/profiler.h"
#include "scope/session.h"

namespace g80 {
namespace {

// ---- Hand-computable kernels ----------------------------------------------------

struct CoalescedLoadKernel {  // lane i loads word i: textbook coalescing
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(i, In.ld(i));
  }
};

struct Stride2LoadKernel {  // lane i loads word 2i: breaks the strict rule
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(i, In.ld(static_cast<std::size_t>(i) * 2));
  }
};

struct SharedStride2Kernel {  // stride-2 shared words: 2-way bank conflicts
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto S = ctx.template shared<float>(2 * 256);
    auto O = ctx.global(out);
    const int t = static_cast<int>(ctx.thread_idx().x);
    S.st(static_cast<std::size_t>(t) * 2, 1.0f);
    O.st(ctx.global_thread_x(), 1.0f);
  }
};

struct HalfWarpDivergentKernel {  // lanes 0-15 vs 16-31 disagree per warp
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i % 32 < 16)) {
      O.st(i, ctx.add(1.0f, 1.0f));
    } else {
      O.st(i, ctx.add(2.0f, 2.0f));
    }
  }
};

struct Mad4Kernel {  // 4 mads + 1 coalesced load + 1 coalesced store
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data) const {
    auto D = ctx.global(data);
    const int i = ctx.global_thread_x();
    float v = D.ld(i);
    for (int k = 0; k < 4; ++k) v = ctx.mad(v, 1.0f, 1.0f);
    D.st(i, v);
  }
};

LaunchOptions exact_options() {
  LaunchOptions opt;
  opt.sample_blocks = 1;  // single-block grids below: the trace is exact
  return opt;
}

// ---- Counter derivation -----------------------------------------------------------

TEST(ProfCounters, SixteenThreadCoalescedLoadIsOneGldCoalesced) {
  Device dev;
  auto in = dev.alloc<float>(16);
  auto out = dev.alloc<float>(16);
  const auto s = launch(dev, Dim3(1), Dim3(16), exact_options(),
                        CoalescedLoadKernel{}, in, out);
  const auto c = prof::derive_counters(dev.spec(), s);
  EXPECT_EQ(c.gld_coalesced, 1u);
  EXPECT_EQ(c.gld_uncoalesced, 0u);
  EXPECT_EQ(c.gst_coalesced, 1u);
  EXPECT_EQ(c.gst_uncoalesced, 0u);
  EXPECT_DOUBLE_EQ(c.coalesced_fraction(), 1.0);
  // 16 threads of a 32-wide warp: one warp sampled, whole grid sampled.
  EXPECT_EQ(c.warps_sampled, 1u);
  EXPECT_EQ(c.blocks_sampled, 1u);
  EXPECT_EQ(c.blocks_total, 1u);
  EXPECT_DOUBLE_EQ(c.grid_scale(), 1.0);
}

TEST(ProfCounters, Stride2LoadIsOneGldUncoalesced) {
  Device dev;
  auto in = dev.alloc<float>(32);
  auto out = dev.alloc<float>(16);
  const auto s = launch(dev, Dim3(1), Dim3(16), exact_options(),
                        Stride2LoadKernel{}, in, out);
  const auto c = prof::derive_counters(dev.spec(), s);
  EXPECT_EQ(c.gld_coalesced, 0u);
  EXPECT_EQ(c.gld_uncoalesced, 1u);
  EXPECT_EQ(c.gst_coalesced, 1u);  // the output store still coalesces
  EXPECT_EQ(c.gst_uncoalesced, 0u);
  EXPECT_DOUBLE_EQ(c.coalesced_fraction(), 0.5);
  // An uncoalesced half-warp issues one transaction per active lane.
  EXPECT_GE(c.global_transactions, 16u);
}

TEST(ProfCounters, SharedStride2SerializationCountsExactly) {
  Device dev;
  // 16 threads: one half-warp hits 8 banks twice -> one extra pass.
  {
    auto out = dev.alloc<float>(16);
    const auto s = launch(dev, Dim3(1), Dim3(16), exact_options(),
                          SharedStride2Kernel{}, out);
    const auto c = prof::derive_counters(dev.spec(), s);
    EXPECT_EQ(c.warp_serialize, 1u);
    EXPECT_EQ(c.shared_bank_replays, 1u);
    EXPECT_EQ(c.const_serialize, 0u);
  }
  // 32 threads: two half-warps, one replay each.
  {
    auto out = dev.alloc<float>(32);
    const auto s = launch(dev, Dim3(1), Dim3(32), exact_options(),
                          SharedStride2Kernel{}, out);
    const auto c = prof::derive_counters(dev.spec(), s);
    EXPECT_EQ(c.warp_serialize, 2u);
  }
}

TEST(ProfCounters, HalfWarpDivergenceIsOneDivergentBranch) {
  Device dev;
  auto out = dev.alloc<float>(32);
  const auto s = launch(dev, Dim3(1), Dim3(32), exact_options(),
                        HalfWarpDivergentKernel{}, out);
  const auto c = prof::derive_counters(dev.spec(), s);
  EXPECT_EQ(c.branch, 1u);
  EXPECT_EQ(c.divergent_branch, 1u);
  EXPECT_DOUBLE_EQ(c.divergent_branch_fraction(), 1.0);
}

TEST(ProfCounters, InstructionMixAndFmadFraction) {
  Device dev;
  auto d = dev.alloc<float>(32);
  const auto s =
      launch(dev, Dim3(1), Dim3(32), exact_options(), Mad4Kernel{}, d);
  const auto c = prof::derive_counters(dev.spec(), s);
  // One warp: 4 fmads + 1 load + 1 store = 6 warp-level instructions.
  EXPECT_EQ(c.instructions, 6u);
  EXPECT_EQ(c.mix[OpClass::kFMad], 4u);
  EXPECT_DOUBLE_EQ(c.fmad_fraction(), 4.0 / 6.0);
  // Lane flops: 32 threads x 4 mads x 2 flops each.
  EXPECT_DOUBLE_EQ(c.flops, 32.0 * 4 * 2);
  EXPECT_EQ(c.sync, 0u);
}

TEST(ProfCounters, OccupancyFieldsMatchLaunchStats) {
  Device dev;
  auto in = dev.alloc<float>(4096);
  auto out = dev.alloc<float>(4096);
  LaunchOptions opt;
  const auto s = launch(dev, Dim3(16), Dim3(256), opt, CoalescedLoadKernel{},
                        in, out);
  const auto c = prof::derive_counters(dev.spec(), s);
  EXPECT_DOUBLE_EQ(c.achieved_occupancy, s.occupancy.fraction(dev.spec()));
  EXPECT_EQ(c.blocks_per_sm, s.occupancy.blocks_per_sm);
  EXPECT_EQ(c.active_warps_per_sm, s.occupancy.active_warps_per_sm);
  EXPECT_EQ(c.blocks_total, 16u);
}

// ---- Profiler session semantics ---------------------------------------------------

TEST(Profiler, AggregatesLaunchesByKernelName) {
  Device dev;
  prof::Profiler p;
  auto in = dev.alloc<float>(16);
  auto out = dev.alloc<float>(16);
  for (int i = 0; i < 2; ++i) {
    p.record_launch("copy16", dev.spec(),
                    launch(dev, Dim3(1), Dim3(16), exact_options(),
                           CoalescedLoadKernel{}, in, out));
  }

  EXPECT_EQ(p.total_launches(), 2u);
  const auto ks = p.kernels();
  ASSERT_EQ(ks.size(), 1u);
  EXPECT_EQ(ks[0].name, "copy16");
  EXPECT_EQ(ks[0].launches, 2u);
  // Counters sum across launches; occupancy stays per-launch.
  EXPECT_EQ(ks[0].counters.gld_coalesced, 2u);
  EXPECT_EQ(ks[0].counters.gst_coalesced, 2u);
  EXPECT_EQ(ks[0].counters.blocks_total, 2u);
  EXPECT_GT(ks[0].modeled_seconds, 0.0);
}

TEST(Profiler, DistinctKernelNamesGetDistinctProfiles) {
  Device dev;
  prof::Profiler p;
  auto in = dev.alloc<float>(32);
  auto out = dev.alloc<float>(16);
  p.record_launch("coalesced", dev.spec(),
                  launch(dev, Dim3(1), Dim3(16), exact_options(),
                         CoalescedLoadKernel{}, in, out));
  p.record_launch("strided", dev.spec(),
                  launch(dev, Dim3(1), Dim3(16), exact_options(),
                         Stride2LoadKernel{}, in, out));

  const auto ks = p.kernels();
  ASSERT_EQ(ks.size(), 2u);  // first-launch order
  EXPECT_EQ(ks[0].name, "coalesced");
  EXPECT_EQ(ks[1].name, "strided");
  EXPECT_EQ(ks[0].counters.gld_uncoalesced, 0u);
  EXPECT_EQ(ks[1].counters.gld_uncoalesced, 1u);
}

TEST(Profiler, AttachingASinkDoesNotPerturbResults) {
  Device dev;
  const int n = 512;
  std::vector<float> host(n);
  for (int i = 0; i < n; ++i) host[i] = 0.25f * static_cast<float>(i);

  auto run = [&](prof::Profiler* sink) {
    auto d = dev.alloc<float>(n);
    d.copy_from_host(host);
    const LaunchStats s =
        launch(dev, Dim3(n / 64), Dim3(64), LaunchOptions{}, Mad4Kernel{}, d);
    if (sink != nullptr) sink->record_launch("mad4", dev.spec(), s);
    return d.copy_to_host();
  };

  prof::Profiler p;
  const auto plain = run(nullptr);
  const auto profiled = run(&p);
  ASSERT_EQ(plain.size(), profiled.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Bit-identical, not approximately equal: the functional pass must not
    // observe the profiler at all.
    ASSERT_EQ(plain[i], profiled[i]) << "at " << i;
  }
  EXPECT_EQ(p.total_launches(), 1u);
}

TEST(Profiler, ClearEmptiesTheSession) {
  Device dev;
  prof::Profiler p;
  auto in = dev.alloc<float>(16);
  auto out = dev.alloc<float>(16);
  p.record_launch("copy16", dev.spec(),
                  launch(dev, Dim3(1), Dim3(16), exact_options(),
                         CoalescedLoadKernel{}, in, out));
  p.record_transfer(/*h2d=*/true, 1024, 1e-6);
  ASSERT_EQ(p.total_launches(), 1u);
  ASSERT_EQ(p.transfers().h2d_count, 1u);
  p.clear();
  EXPECT_EQ(p.total_launches(), 0u);
  EXPECT_TRUE(p.kernels().empty());
  EXPECT_EQ(p.transfers().h2d_count, 0u);
}

TEST(Profiler, UnnamedLaunchFallsBackToDefaultKey) {
  Device dev;
  prof::Profiler p;
  scope::Session session;
  auto in = dev.alloc<float>(16);
  auto out = dev.alloc<float>(16);
  const LaunchStats s = launch(dev, Dim3(1), Dim3(16), exact_options(),
                               CoalescedLoadKernel{}, in, out);
  p.record_launch("", dev.spec(), s);
  session.record_launch("", dev.spec(), s);
  const auto ks = p.kernels();
  ASSERT_EQ(ks.size(), 1u);
  EXPECT_EQ(ks[0].name, "kernel");
  // The scope session falls back to the same key.
  const auto rs = session.launches();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].kernel_name, "kernel");
}

}  // namespace
}  // namespace g80
