// Integration tests for the cudalite layer: launch mechanics, functional
// execution, trace collection (instruction mixes, coalescing, divergence,
// bank conflicts, constant broadcast, texture cache) and resource checks —
// kernels small enough to have hand-computable expectations.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/fiber.h"
#include "trace_digest.h"

namespace g80 {
namespace {

// ---- Minimal kernels ----------------------------------------------------------

struct FillIndexKernel {
  int n = 0;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) Out.st(i, i * 3);
  }
};

struct Mad4Kernel {  // 4 mads, 1 coalesced load, 1 coalesced store per thread
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data) const {
    auto D = ctx.global(data);
    const int i = ctx.global_thread_x();
    float v = D.ld(i);
    for (int k = 0; k < 4; ++k) v = ctx.mad(v, 1.0f, 1.0f);
    D.st(i, v);
  }
};

struct StridedKernel {  // scattered loads: thread i reads element 17*i
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& data,
                  DeviceBuffer<float>& out) const {
    auto D = ctx.global(data);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, D.ld(static_cast<std::size_t>(i) * 17 % D.size()));
  }
};

struct SharedReverseKernel {  // block-wide reverse through shared memory
  // Out-of-place: retries and sanitized launches rerun blocks, so kernels
  // must be idempotent at block granularity.
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& in, DeviceBuffer<int>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<int>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    S.st(t, In.ld(base + t));
    ctx.sync();
    Out.st(base + t, S.ld(ctx.block_dim().x - 1 - t));
  }
};

struct DivergentKernel {  // odd lanes take one path, even lanes another
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i % 2 == 0)) {
      O.st(i, ctx.mul(2.0f, 3.0f));
    } else {
      O.st(i, ctx.add(1.0f, 1.0f));
    }
  }
};

struct ConstBroadcastKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, const ConstantBuffer<float>& c,
                  DeviceBuffer<float>& out) const {
    auto C = ctx.constant(c);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, C.ld(3));  // uniform address: broadcast
  }
};

struct ConstDivergentKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, const ConstantBuffer<float>& c,
                  DeviceBuffer<float>& out) const {
    auto C = ctx.constant(c);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, C.ld(static_cast<std::size_t>(i) % c.size()));  // distinct addrs
  }
};

struct BankConflictKernel {  // stride-16 shared words: 16-way conflicts
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto S = ctx.template shared<float>(16 * 256 / 4);
    auto O = ctx.global(out);
    const int t = static_cast<int>(ctx.thread_idx().x);
    S.st(static_cast<std::size_t>(t) * 16 % S.size(), 1.0f);
    O.st(ctx.global_thread_x(), 1.0f);
  }
};

struct TextureStreamKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, const Texture1D<float>& t,
                  DeviceBuffer<float>& out) const {
    auto T = ctx.texture(t);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, T.fetch(static_cast<std::size_t>(i) % t.size()));
  }
};

struct Coord2DKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto O = ctx.global(out);
    const auto t = ctx.thread_idx();
    const int x = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x + t.x);
    const int y = static_cast<int>(ctx.block_idx().y * ctx.block_dim().y + t.y);
    O.st(static_cast<std::size_t>(y) * 32 + x, y * 1000 + x);
  }
};

struct OobKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& d) const {
    auto D = ctx.global(d);
    D.ld(d.size() + 5);
  }
};

struct HugeSharedKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& d) const {
    ctx.template shared<float>(5000);  // 20 KB > 16 KB
  }
};

// ---- Functional behaviour -------------------------------------------------------

TEST(Launch, FunctionalPassCoversFullGrid) {
  Device dev;
  const int n = 1024;
  auto out = dev.alloc<int>(n);
  LaunchOptions opt;
  launch(dev, Dim3(n / 64), Dim3(64), opt, FillIndexKernel{n}, out);
  const auto host = out.copy_to_host();
  for (int i = 0; i < n; ++i) ASSERT_EQ(host[i], i * 3);
}

TEST(Launch, TwoDimensionalGridCoordinates) {
  Device dev;
  auto out = dev.alloc<int>(32 * 16);
  LaunchOptions opt;
  launch(dev, Dim3(4, 4), Dim3(8, 4), opt, Coord2DKernel{}, out);
  const auto host = out.copy_to_host();
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 32; ++x)
      ASSERT_EQ(host[static_cast<std::size_t>(y) * 32 + x], y * 1000 + x);
}

TEST(Launch, SharedMemoryReverseWithBarrier) {
  Device dev;
  const int n = 512;
  auto data = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  std::vector<int> host(n);
  for (int i = 0; i < n; ++i) host[i] = i;
  data.copy_from_host(host);
  launch(dev, Dim3(n / 128), Dim3(128), LaunchOptions{}, SharedReverseKernel{},
         data, out);
  const auto result = out.copy_to_host();
  for (int b = 0; b < n / 128; ++b)
    for (int t = 0; t < 128; ++t)
      ASSERT_EQ(result[b * 128 + t], b * 128 + (127 - t));
}

TEST(Launch, OutOfBoundsAccessThrows) {
  Device dev;
  auto d = dev.alloc<float>(16);
  LaunchOptions opt;
  EXPECT_THROW(launch(dev, Dim3(1), Dim3(1), opt, OobKernel{}, d), Error);
}

TEST(Launch, OversizedBlockRejected) {
  Device dev;
  auto d = dev.alloc<float>(16);
  LaunchOptions opt;
  EXPECT_THROW(launch(dev, Dim3(1), Dim3(1024), opt, Mad4Kernel{}, d), Error);
}

TEST(Launch, SharedMemoryOverflowRejected) {
  Device dev;
  auto d = dev.alloc<float>(16);
  EXPECT_THROW(launch(dev, Dim3(1), Dim3(32), LaunchOptions{},
                      HugeSharedKernel{}, d),
               Error);
}

// ---- Trace collection -----------------------------------------------------------

TEST(Launch, InstructionMixCountedExactly) {
  Device dev;
  const int n = 256;
  auto d = dev.alloc<float>(n);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, Mad4Kernel{}, d);
  ASSERT_EQ(s.trace.num_warps, 8u);
  // Per warp: 4 mads, 1 load, 1 store.
  EXPECT_EQ(s.trace.total.ops[OpClass::kFMad], 8u * 4);
  EXPECT_EQ(s.trace.total.ops[OpClass::kLoadGlobal], 8u * 1);
  EXPECT_EQ(s.trace.total.ops[OpClass::kStoreGlobal], 8u * 1);
  // Lane flops: 256 threads x 4 mads x 2 flops.
  EXPECT_DOUBLE_EQ(s.trace.total.lane_flops, 256.0 * 4 * 2);
}

TEST(Launch, CoalescedKernelFullyCoalesced) {
  Device dev;
  auto d = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, Mad4Kernel{}, d);
  EXPECT_DOUBLE_EQ(s.trace.coalesced_fraction(), 1.0);
  // 2 transactions per warp-level access (two half-warps), 64 B each.
  EXPECT_DOUBLE_EQ(s.trace.transactions_per_mem_inst(), 2.0);
  EXPECT_EQ(s.trace.total.global.scattered_bytes, 0u);
}

TEST(Launch, StridedKernelScatters) {
  Device dev;
  auto d = dev.alloc<float>(4096);
  auto o = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, StridedKernel{}, d, o);
  EXPECT_LT(s.trace.coalesced_fraction(), 0.6);  // loads scatter, stores don't
  EXPECT_GT(s.trace.total.global.scattered_bytes, 0u);
}

TEST(Launch, DivergenceDetected) {
  Device dev;
  auto o = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, DivergentKernel{}, o);
  EXPECT_GT(s.trace.divergent_branch_fraction(), 0.9);
  // Functional result is still correct for both paths.
  const auto host = o.copy_to_host();
  for (int i = 0; i < 256; ++i) EXPECT_FLOAT_EQ(host[i], i % 2 == 0 ? 6.f : 2.f);
}

TEST(Launch, UniformBranchNotDivergent) {
  Device dev;
  auto o = dev.alloc<int>(1024);
  LaunchOptions opt;
  const auto s = launch(dev, Dim3(4), Dim3(256), opt, FillIndexKernel{1024}, o);
  EXPECT_DOUBLE_EQ(s.trace.divergent_branch_fraction(), 0.0);
}

TEST(Launch, ConstantBroadcastIsFree) {
  Device dev;
  auto c = dev.alloc_constant<float>(16);
  auto o = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, ConstBroadcastKernel{}, c, o);
  EXPECT_EQ(s.trace.total.const_extra_passes, 0u);
}

TEST(Launch, ConstantDivergentSerializes) {
  Device dev;
  auto c = dev.alloc_constant<float>(16);
  auto o = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s =
      launch(dev, Dim3(1), Dim3(256), opt, ConstDivergentKernel{}, c, o);
  // Each half-warp touches 16 distinct constant addresses: 15 extra passes,
  // 16 half-warps per block of 256 threads.
  EXPECT_EQ(s.trace.total.const_extra_passes, 16u * 15);
}

TEST(Launch, BankConflictsMeasured) {
  Device dev;
  auto o = dev.alloc<float>(256);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s = launch(dev, Dim3(1), Dim3(256), opt, BankConflictKernel{}, o);
  // Every shared store is a 16-way conflict: 15 extra passes per half-warp.
  EXPECT_EQ(s.trace.total.shared_extra_passes, 16u * 15);
}

TEST(Launch, TextureCacheObservedInTrace) {
  Device dev;
  auto t = dev.alloc_texture<float>(64);  // tiny table: high hit rate
  auto o = dev.alloc<float>(512);
  LaunchOptions opt;
  opt.sample_blocks = 1;
  const auto s =
      launch(dev, Dim3(2), Dim3(256), opt, TextureStreamKernel{}, t, o);
  EXPECT_GT(s.trace.total.texture_hits, s.trace.total.texture_misses);
}

TEST(Launch, SmemPerBlockMeasured) {
  Device dev;
  auto d = dev.alloc<int>(256);
  auto o = dev.alloc<int>(256);
  const auto s = launch(dev, Dim3(2), Dim3(128), LaunchOptions{},
                        SharedReverseKernel{}, d, o);
  EXPECT_EQ(s.smem_per_block, 128u * sizeof(int));
  EXPECT_EQ(s.trace.total.ops[OpClass::kSync], 8u);  // 2 blocks x 4 warps x 1
}

TEST(Launch, SampleBlocksIncludeEndpoints) {
  const auto s = detail::pick_sample_blocks(100, 4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.front(), 0u);
  EXPECT_EQ(s.back(), 99u);
  const auto all = detail::pick_sample_blocks(3, 10);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Launch, TimingExtrapolatesAcrossGrid) {
  Device dev;
  auto d = dev.alloc<float>(1 << 16);
  LaunchOptions opt;
  opt.functional = false;
  const auto small = launch(dev, Dim3(64), Dim3(256), opt, Mad4Kernel{}, d);
  const auto big = launch(dev, Dim3(256), Dim3(256), opt, Mad4Kernel{}, d);
  EXPECT_NEAR(big.timing.seconds / small.timing.seconds, 4.0, 0.3);
}

TEST(Launch, TransferLedgerTracksCopies) {
  Device dev;
  auto d = dev.alloc<float>(1024);
  std::vector<float> host(1024, 1.0f);
  d.copy_from_host(host);
  (void)d.copy_to_host();
  EXPECT_EQ(dev.ledger().h2d_bytes(), 4096u);
  EXPECT_EQ(dev.ledger().d2h_bytes(), 4096u);
  EXPECT_EQ(dev.ledger().transfer_count(), 2u);
  dev.ledger().reset();
  EXPECT_EQ(dev.ledger().total_bytes(), 0u);
}

TEST(Launch, ConstantSpaceExhaustionThrows) {
  Device dev;
  (void)dev.alloc_constant<float>(12 * 1024);      // 48 KB
  EXPECT_THROW(dev.alloc_constant<float>(8 * 1024), Error);  // +32 KB > 64 KB
}

// ---- Structured launch errors (g80::Status, cudaError_t-style) ----------------

// Catch a StatusError from `fn`, returning its code and message.
template <class Fn>
std::pair<Status, std::string> catch_status(Fn&& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return {e.status(), e.what()};
  }
  return {Status::kSuccess, "no error raised"};
}

TEST(LaunchStatus, OversizedBlockIsInvalidConfiguration) {
  Device dev;
  auto d = dev.alloc<float>(16);
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(1024), LaunchOptions{}, Mad4Kernel{}, d);
  });
  EXPECT_EQ(code, Status::kInvalidConfiguration);
  EXPECT_NE(msg.find("1024"), std::string::npos) << msg;
  EXPECT_NE(msg.find("512"), std::string::npos) << msg;  // the hardware limit
  // Sticky until read, then cleared — the cudaGetLastError contract.
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidConfiguration);
  EXPECT_EQ(dev.get_last_error(), Status::kSuccess);
}

TEST(LaunchStatus, GridDimensionOverflowIsInvalidConfiguration) {
  Device dev;
  auto d = dev.alloc<float>(16);
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(70000), Dim3(64), LaunchOptions{}, Mad4Kernel{}, d);
  });
  EXPECT_EQ(code, Status::kInvalidConfiguration);
  EXPECT_NE(msg.find("70000"), std::string::npos) << msg;
  EXPECT_NE(msg.find("65535"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidConfiguration);
}

TEST(LaunchStatus, ThreeDimensionalGridIsInvalidConfiguration) {
  Device dev;
  auto d = dev.alloc<float>(16);
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(4, 4, 2), Dim3(64), LaunchOptions{}, Mad4Kernel{}, d);
  });
  EXPECT_EQ(code, Status::kInvalidConfiguration);
  EXPECT_NE(msg.find("grid.z"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidConfiguration);
}

TEST(LaunchStatus, UnsupportedWarpSizeIsInvalidConfiguration) {
  // The trace pass lines a warp up in 32-bit lane masks and the memory
  // analyzers split it into half-warps: odd or out-of-range warp sizes are
  // rejected before any pass runs, whatever the sample count.
  for (int ws : {0, 1, 3, 31, 34, 64}) {
    DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
    spec.warp_size = ws;
    Device dev(spec);
    auto d = dev.alloc<float>(16);
    LaunchOptions opt;
    opt.sample_blocks = 0;
    const auto [code, msg] = catch_status([&] {
      launch(dev, Dim3(1), Dim3(16), opt, Mad4Kernel{}, d);
    });
    EXPECT_EQ(code, Status::kInvalidConfiguration) << ws;
    EXPECT_NE(msg.find("warp size " + std::to_string(ws)), std::string::npos)
        << msg;
    EXPECT_EQ(dev.get_last_error(), Status::kInvalidConfiguration);
  }
}

TEST(LaunchStatus, RegisterFileExhaustionIsLaunchOutOfResources) {
  Device dev;
  auto d = dev.alloc<float>(16);
  LaunchOptions opt;
  opt.regs_per_thread = 40;  // 40 x 512 = 20480 regs > 8192/SM
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(512), opt, Mad4Kernel{}, d);
  });
  EXPECT_EQ(code, Status::kLaunchOutOfResources);
  EXPECT_NE(msg.find("register"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kLaunchOutOfResources);
}

TEST(LaunchStatus, SharedMemoryOverflowIsLaunchOutOfResources) {
  Device dev;
  auto d = dev.alloc<float>(16);
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(32), LaunchOptions{}, HugeSharedKernel{}, d);
  });
  EXPECT_EQ(code, Status::kLaunchOutOfResources);
  EXPECT_NE(msg.find("shared memory overflow"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kLaunchOutOfResources);
}

TEST(LaunchStatus, ConstantSpaceExhaustionIsStructured) {
  Device dev;
  (void)dev.alloc_constant<float>(12 * 1024);  // 48 KB of the 64 KB space
  const auto [code, msg] =
      catch_status([&] { (void)dev.alloc_constant<float>(8 * 1024); });
  EXPECT_EQ(code, Status::kConstantSpaceExceeded);
  EXPECT_NE(msg.find("constant"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kConstantSpaceExceeded);
}

TEST(LaunchStatus, OutOfBoundsAccessIsInvalidAddress) {
  Device dev;
  auto d = dev.alloc<float>(16);
  LaunchOptions opt;
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(1), opt, OobKernel{}, d);
  });
  EXPECT_EQ(code, Status::kInvalidAddress);
  EXPECT_NE(msg.find("out of bounds"), std::string::npos) << msg;
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidAddress);
}

TEST(LaunchStatus, SuccessfulLaunchLeavesStatusClean) {
  Device dev;
  auto out = dev.alloc<int>(256);
  LaunchOptions opt;
  launch(dev, Dim3(4), Dim3(64), opt, FillIndexKernel{256}, out);
  EXPECT_EQ(dev.get_last_error(), Status::kSuccess);
}

// ---- Per-thread runner reuse ----------------------------------------------------

// One 256-thread SharedReverseKernel launch, every thread parking once.
struct ReverseRun {
  std::vector<int> out;
  std::uint64_t digest = 0;  // TraceSummary, modeled time, derived counters
  std::uint64_t stacks_mapped = 0;  // fiber stacks this launch mapped
};

ReverseRun reverse_launch() {
  Device dev;
  const int n = 1024;
  auto data = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  std::vector<int> host(n);
  for (int i = 0; i < n; ++i) host[i] = 3 * i;
  data.copy_from_host(host);
  ReverseRun r;
  const std::uint64_t before = Fiber::stacks_mapped();
  const LaunchStats stats = launch(dev, Dim3(n / 256), Dim3(256),
                                   LaunchOptions{}, SharedReverseKernel{},
                                   data, out);
  r.stacks_mapped = Fiber::stacks_mapped() - before;
  r.out = out.copy_to_host();
  r.digest = launch_digest(dev.spec(), stats, {});
  return r;
}

void expect_reversed(const std::vector<int>& out) {
  for (int i = 0; i < 1024; ++i)
    ASSERT_EQ(out[i], 3 * ((i / 256) * 256 + 255 - i % 256)) << i;
}

TEST(LaunchReuse, SteadyStateLaunchMapsNoStacks) {
  // Fresh threads start without a cached runner.
  ReverseRun first, second, fresh;
  std::thread([&] {
    first = reverse_launch();
    second = reverse_launch();
  }).join();
  std::thread([&] { fresh = reverse_launch(); }).join();

  // All 256 threads park at once, so the first launch builds one fiber
  // each; the second re-arms them.
  EXPECT_EQ(first.stacks_mapped, 256u);
  EXPECT_EQ(second.stacks_mapped, 0u);
  EXPECT_EQ(fresh.stacks_mapped, 256u);
  expect_reversed(first.out);
  EXPECT_EQ(second.out, first.out);
  EXPECT_EQ(fresh.out, first.out);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(fresh.digest, first.digest);
}

// Throws from block 1, after block 0 released its barrier to the observer.
struct ThrowAfterBarrierKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto O = ctx.global(out);
    auto S = ctx.template shared<int>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    S.st(t, t);
    ctx.sync();
    if (ctx.block_idx().x == 1) throw std::runtime_error("kernel failure");
    O.st(ctx.global_thread_x(), S.ld(t));
  }
};

TEST(LaunchReuse, SanitizedLaunchThatThrowsLeavesNoObserverBehind) {
  Device dev;
  auto out = dev.alloc<int>(128);
  LaunchOptions san;
  san.sample_blocks = 0;  // the sanitized sweep is the first to run blocks
  san.sanitize.enabled = true;
  EXPECT_THROW(
      launch(dev, Dim3(2), Dim3(64), san, ThrowAfterBarrierKernel{}, out),
      StatusError);

  // This thread's runner outlived that launch and its Sanitizer.  A barrier
  // launch on it must not call the dead observer (ASan builds report a
  // stack-use-after-scope if it does) and must produce correct results.
  expect_reversed(reverse_launch().out);
}

}  // namespace
}  // namespace g80
