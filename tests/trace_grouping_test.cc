// Regression tests for warp-level instruction reconstruction: diverged
// lanes' accesses are regrouped by static call site + occurrence, which must
// stay correct when divergent lanes execute different numbers of accesses
// (the LBM halo-load pattern that motivated the design).
#include <gtest/gtest.h>

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

// Direct collector-level check with a hand-recorded arena.
TEST(TraceGrouping, CollectorHandlesRaggedLanes) {
  const auto spec = DeviceSpec::geforce_8800_gtx();
  std::vector<LaneTrace> lanes(32);
  TraceArena arena;
  arena.begin_block(spec, 32);
  WarpSpaceBatch& global = *arena.stream(0, kSpaceGlobal);
  // All lanes: one access at site 7, perfectly coalesced.  Lane 3 first
  // makes an extra access at site 9, which diverges it from the stream.
  for (int k = 0; k < 32; ++k) {
    lanes[k].ops[OpClass::kLoadGlobal] = k == 3 ? 2 : 1;
    if (k == 3) global.record(k, 9, 4, false, 4096);
    global.record(k, 7, 4, false, static_cast<std::uint64_t>(4 * k));
  }

  const auto block = collect_block_trace(spec, lanes, arena);
  ASSERT_EQ(block.warps.size(), 1u);
  const auto& w = block.warps[0];
  EXPECT_EQ(w.global_instructions, 2u);
  EXPECT_EQ(w.coalesced_instructions, 1u);       // the common site
  EXPECT_EQ(w.ops[OpClass::kLoadGlobal], 2u);    // max over lanes
  EXPECT_EQ(block.regrouped_streams, 1u);
}

}  // namespace
}  // namespace g80
