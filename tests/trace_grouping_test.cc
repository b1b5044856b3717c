// Regression tests for warp-level instruction reconstruction: diverged
// lanes' accesses are regrouped by static call site + occurrence, which must
// stay correct when divergent lanes execute different numbers of accesses
// (the LBM halo-load pattern that motivated the design).
#include <gtest/gtest.h>

#include <string_view>

#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"

namespace g80 {
namespace {

// Lane 0 performs two extra loads before the common stream.  With naive
// sequence-index grouping, every subsequent common load of lane 0 would be
// misaligned against lanes 1..31 and read as scattered; site-keyed grouping
// keeps the common loads fully coalesced.
struct HaloThenStreamKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data,
                  DeviceBuffer<float>& out) const {
    auto D = ctx.global(data);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float halo = 0.0f;
    if (ctx.branch(ctx.thread_idx().x == 0)) {
      halo = D.ld(0);          // extra site A
      halo += D.ld(1);         // extra site B
    }
    float acc = halo;
    for (int r = 0; r < 4; ++r) {
      acc = ctx.add(acc, D.ld(static_cast<std::size_t>(i) +
                              static_cast<std::size_t>(r) * 32));  // common site
    }
    O.st(i, acc);
  }
};

TEST(TraceGrouping, DivergentExtraAccessesDoNotMisalignStream) {
  Device dev;
  auto d = dev.alloc<float>(1024);
  auto o = dev.alloc<float>(32);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(32), opt, HaloThenStreamKernel{}, d, o);

  // Warp instructions: 2 single-lane halo loads + 4 common loads (fully
  // coalesced) + 1 store.  The halo at element 0 sits on a 16-word boundary
  // and therefore still satisfies the strict rule (inactive lanes leave
  // holes); the halo at element 1 is misaligned and serializes.
  EXPECT_EQ(s.trace.total.global_instructions, 7u);
  EXPECT_EQ(s.trace.total.coalesced_instructions, 6u);
  // Common loads 4 x 128 B; aligned halo one 64 B line; misaligned halo one
  // scattered 32 B transaction; store 128 B.
  EXPECT_EQ(s.trace.total.global.bytes, 4u * 128 + 64 + 32 + 128);
  EXPECT_EQ(s.trace.total.global.scattered_bytes, 32u);
  // Lane 0's halo loads break positional matching: its global stream is
  // the one the collector regroups per lane.
  EXPECT_EQ(s.trace.regrouped_streams, 1u);
}

// The same site executed in a loop must produce one warp instruction per
// iteration (occurrence-keyed), not one giant merged access.
struct LoopedLoadKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data,
                  DeviceBuffer<float>& out) const {
    auto D = ctx.global(data);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float acc = 0.0f;
    for (int r = 0; r < 5; ++r)
      acc = ctx.add(acc, D.ld(static_cast<std::size_t>(r) * 32 + i));
    O.st(i, acc);
  }
};

TEST(TraceGrouping, LoopIterationsAreSeparateInstructions) {
  Device dev;
  auto d = dev.alloc<float>(1024);
  auto o = dev.alloc<float>(32);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(32), opt, LoopedLoadKernel{}, d, o);
  EXPECT_EQ(s.trace.total.global_instructions, 6u);  // 5 loads + 1 store
  EXPECT_DOUBLE_EQ(s.trace.coalesced_fraction(), 1.0);
}

// Different lanes taking different branch arms access different sites; each
// arm's store is its own (partially populated) warp instruction.
struct TwoArmKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i % 2 == 0)) {
      O.st(i, 1.0f);  // site A: even lanes
    } else {
      O.st(i, 2.0f);  // site B: odd lanes
    }
  }
};

TEST(TraceGrouping, BranchArmsAreSeparateInstructions) {
  Device dev;
  auto o = dev.alloc<float>(32);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(32), opt, TwoArmKernel{}, o);
  // Two warp-level stores, each with every other lane active.  Each active
  // lane still hits its own word of an aligned line, so the G80 rule holds
  // (inactive lanes merely leave holes) — divergence costs issue slots, not
  // coalescing, in this pattern.
  EXPECT_EQ(s.trace.total.global_instructions, 2u);
  EXPECT_EQ(s.trace.total.coalesced_instructions, 2u);
  EXPECT_EQ(s.trace.total.divergent_branches, 1u);
}

// A converged warp whose loop body alternates two load sites, as the
// paper's matmul alternates its A and B loads.
struct AlternatingSitesKernel {
  int pairs = 0;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a,
                  DeviceBuffer<float>& b) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    const int i = ctx.global_thread_x();
    float acc = 0.0f;
    for (int r = 0; r < pairs; ++r) {
      const std::size_t j = static_cast<std::size_t>(r) * 32 + i;
      acc = ctx.add(acc, A.ld(j));
      acc = ctx.add(acc, B.ld(j));
    }
  }
};

TEST(TraceGrouping, RecorderLooksEachSiteUpOncePerWarp) {
  constexpr int kPairs = 8;
  Device dev;
  auto a = dev.alloc<float>(kPairs * 32);
  auto b = dev.alloc<float>(kPairs * 32);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(32), opt,
                        AlternatingSitesKernel{kPairs}, a, b);
  const std::uint64_t rows = 2 * kPairs;
  EXPECT_EQ(s.trace.total.global_instructions, rows);
  EXPECT_EQ(s.trace.regrouped_streams, 0u);
  // One row: an 8 B key, a 4 B lane mask and 32 four-byte addresses.
  EXPECT_EQ(s.trace.arena_row_bytes, rows * 140);
  // Lane 0 opens every row and looks each of the two sites up once; the
  // other 31 lanes join its rows and look nothing up.
  EXPECT_EQ(s.trace.site_lookups, 2u);
}

// Each iteration stages a word per thread in shared memory, synchronizes,
// reads a neighbour's word and synchronizes again: per warp, one global,
// one shared and one sync row before the first barrier, one shared and one
// sync row before the second.
struct StagedKernel {
  int iterations = 0;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a) const {
    auto A = ctx.global(a);
    auto S = ctx.template shared<float>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int n = static_cast<int>(ctx.block_dim().x);
    float acc = 0.0f;
    for (int r = 0; r < iterations; ++r) {
      S.st(t, A.ld(static_cast<std::size_t>(r) * n + t));
      ctx.sync();
      acc = ctx.add(acc, S.ld(n - 1 - t));
      ctx.sync();
    }
  }
};

TEST(TraceGrouping, ArenaHoldsOneBarrierIntervalOfRows) {
  constexpr int kIterations = 8;
  Device dev;
  auto a = dev.alloc<float>(kIterations * 64);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  opt.functional = false;
  // Two warps.  Every barrier release drops the rows both warps recorded
  // since the last one, so the arena peaks at the first interval's three
  // rows per warp, however many iterations run.
  const auto staged =
      launch(dev, Dim3(1), Dim3(64), opt, StagedKernel{kIterations}, a);
  EXPECT_EQ(staged.trace.arena_row_bytes, kIterations * 2 * 5 * 140u);
  EXPECT_EQ(staged.trace.arena_peak_bytes, 2 * 3 * 140u);

  // Without barriers, warp 0 is done before warp 1 starts, and its rows
  // are dropped as its last lane exits: the arena peaks at one warp's rows.
  constexpr int kPairs = 8;
  auto b = dev.alloc<float>(kPairs * 32 + 32);
  const auto free_running = launch(dev, Dim3(1), Dim3(64), opt,
                                   AlternatingSitesKernel{kPairs}, a, b);
  EXPECT_EQ(free_running.trace.arena_row_bytes, 2 * 2 * kPairs * 140u);
  EXPECT_EQ(free_running.trace.arena_peak_bytes, 2 * kPairs * 140u);
}

// Lane 5 alone makes a second load.  It opens no row (row 1 is the store
// lane 0 opened), so it diverges into overflow, and its site is noted by
// no other lane.
struct LoneLaneSiteKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data,
                  DeviceBuffer<float>& out) const {
    auto D = ctx.global(data);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v = D.ld(i);
    if (ctx.branch(i == 5)) v += D.ld(100);  // kLoneLine
    O.st(i, v);
  }
  static constexpr std::uint32_t kLoneLine = __LINE__ - 3;
};

TEST(TraceGrouping, SiteOfADivergedLaneKeepsItsSourceLine) {
  Device dev;
  auto d = dev.alloc<float>(128);
  auto o = dev.alloc<float>(32);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(32), opt, LoneLaneSiteKernel{}, d, o);
  EXPECT_EQ(s.trace.regrouped_streams, 1u);
  ASSERT_EQ(s.trace.sites.size(), 3u);
  int lone = 0;
  for (const SiteStats& site : s.trace.sites) {
    EXPECT_NE(site.line, 0u);
    EXPECT_NE(std::string_view(site.file).find("trace_grouping_test"),
              std::string_view::npos);
    if (site.line == LoneLaneSiteKernel::kLoneLine) {
      ++lone;
      EXPECT_EQ(site.global_instructions, 1u);
    }
  }
  EXPECT_EQ(lone, 1);
}

// Direct collector-level check with a hand-recorded arena.
TEST(TraceGrouping, CollectorHandlesRaggedLanes) {
  const auto spec = DeviceSpec::geforce_8800_gtx();
  TraceArena arena;
  arena.begin_block(spec, 32);
  WarpSpaceBatch& global = *arena.stream(0, kSpaceGlobal);
  // All lanes: one access at site 7, perfectly coalesced.  Lane 3 first
  // makes an extra access at site 9, which diverges it from the stream.
  for (int k = 0; k < 32; ++k) {
    arena.lane(k)->ops[OpClass::kLoadGlobal] = k == 3 ? 2 : 1;
    if (k == 3) global.record(k, 9, 4, false, 4096);
    global.record(k, 7, 4, false, static_cast<std::uint32_t>(4 * k));
  }

  const auto block = TraceCollector(spec, arena).finish();
  ASSERT_EQ(block.warps.size(), 1u);
  const auto& w = block.warps[0];
  EXPECT_EQ(w.global_instructions, 2u);
  EXPECT_EQ(w.coalesced_instructions, 1u);       // the common site
  EXPECT_EQ(w.ops[OpClass::kLoadGlobal], 2u);    // max over lanes
  EXPECT_EQ(block.regrouped_streams, 1u);
}

}  // namespace
}  // namespace g80
