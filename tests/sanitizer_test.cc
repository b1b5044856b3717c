// g80check tests: barrier-divergence and shared-memory-race detection,
// deterministic fault injection, the structured Status/get_last_error model,
// and the guarantee that a sanitized launch still produces correct
// functional results.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "sanitizer/sanitizer.h"
#include "sanitizer/shadow.h"

namespace g80 {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- Kernels under test ---------------------------------------------------

// Correct: every thread writes its slot, syncs, reads its neighbour's.
struct NeighborReadKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    auto S = ctx.template shared<int>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int n = static_cast<int>(ctx.block_dim().x);
    S.st(t, t * 2);
    ctx.sync();
    Out.st(ctx.global_thread_x(), S.ld((t + 1) % n));
  }
};

// Correct: no cross-thread shared reads, so a skipped barrier produces a
// pure divergence diagnostic with no accompanying race.
struct PrivateSlotsKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    auto S = ctx.template shared<int>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    S.st(t, t);
    ctx.sync();
    Out.st(ctx.global_thread_x(), S.ld(t));
  }
};

// Buggy by construction: communicates through shared memory with the
// __syncthreads() missing — the paper's §2 "undefined" case.
struct MissingSyncKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    auto S = ctx.template shared<int>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int n = static_cast<int>(ctx.block_dim().x);
    S.st(t, t * 2);
    // BUG: no ctx.sync() before reading another thread's slot.
    Out.st(ctx.global_thread_x(), S.ld((t + 1) % n));
  }
};

// Buggy by construction: both sides of a divergent branch hit a different
// static __syncthreads().
struct TwoBarrierPathsKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    const int t = static_cast<int>(ctx.thread_idx().x);
    if (ctx.branch(t % 2 == 0)) {
      ctx.sync();  // even threads wait here...
    } else {
      ctx.sync();  // ...odd threads here: divergent barriers
    }
    Out.st(ctx.global_thread_x(), t);
  }
};

LaunchOptions sanitized(bool abort_on_error = false) {
  LaunchOptions opt;
  opt.sanitize.enabled = true;
  opt.sanitize.abort_on_error = abort_on_error;
  return opt;
}

// ---- Clean kernels stay clean ---------------------------------------------

TEST(G80Check, CleanBarrierKernelReportsNothing) {
  Device dev;
  auto out = dev.alloc<int>(256);
  const auto s =
      launch(dev, Dim3(4), Dim3(64), sanitized(), NeighborReadKernel{}, out);
  EXPECT_TRUE(s.sanitizer.clean());
  EXPECT_EQ(s.sanitizer.blocks_checked, 4u);
  EXPECT_EQ(s.sanitizer.barriers_checked, 4u);  // one barrier per block
  EXPECT_EQ(s.sanitizer.shared_writes, 256u);
  EXPECT_EQ(s.sanitizer.shared_reads, 256u);
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
  // The barrier separates epochs: results are the neighbour's doubled tid.
  const auto host = out.copy_to_host();
  for (int b = 0; b < 4; ++b)
    for (int t = 0; t < 64; ++t)
      ASSERT_EQ(host[b * 64 + t], ((t + 1) % 64) * 2);
}

TEST(G80Check, DisabledSanitizerLeavesReportEmpty) {
  Device dev;
  auto out = dev.alloc<int>(256);
  const auto s = launch(dev, Dim3(4), Dim3(64), LaunchOptions{},
                        MissingSyncKernel{}, out);  // buggy, but unchecked
  EXPECT_TRUE(s.sanitizer.clean());
  EXPECT_EQ(s.sanitizer.blocks_checked, 0u);
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
}

// ---- Barrier divergence via fault injection -------------------------------

TEST(G80Check, InjectedSkippedBarrierReportsDivergence) {
  Device dev;
  auto out = dev.alloc<int>(128);
  auto opt = sanitized();
  opt.sanitize.fault.skip_barrier_tid = 0;  // thread 0 never reaches the sync
  const auto s =
      launch(dev, Dim3(2), Dim3(64), opt, PrivateSlotsKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_TRUE(s.sanitizer.has(Status::kBarrierDivergence));
  EXPECT_FALSE(s.sanitizer.has(Status::kSharedMemoryRace));
  const auto& f = s.sanitizer.findings.front();
  EXPECT_EQ(f.status, Status::kBarrierDivergence);
  // The diagnostic names the exiting thread, a waiting thread, and the
  // kernel-source barrier call site.
  EXPECT_TRUE(contains(f.message, "thread 0")) << f.message;
  EXPECT_TRUE(contains(f.message, "exited the kernel")) << f.message;
  EXPECT_TRUE(contains(f.message, "__syncthreads()")) << f.message;
  EXPECT_TRUE(contains(f.message, "sanitizer_test.cc")) << f.message;
  EXPECT_EQ(dev.peek_last_error(), Status::kBarrierDivergence);
}

TEST(G80Check, DivergentBarrierSitesReported) {
  Device dev;
  auto out = dev.alloc<int>(64);
  const auto s =
      launch(dev, Dim3(1), Dim3(64), sanitized(), TwoBarrierPathsKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_TRUE(s.sanitizer.has(Status::kBarrierDivergence));
  const auto& f = s.sanitizer.findings.front();
  EXPECT_TRUE(contains(f.message, "different barriers")) << f.message;
  // Both static call sites appear (same file, two lines).
  EXPECT_TRUE(contains(f.message, "sanitizer_test.cc")) << f.message;
}

// ---- Shared-memory races --------------------------------------------------

TEST(G80Check, InjectedCorruptStoreReportsWriteWriteRace) {
  Device dev;
  auto out = dev.alloc<int>(128);
  auto opt = sanitized();
  // Redirect thread 3's first shared store one word over, onto thread 4's
  // slot: two same-epoch writers of one word.
  opt.sanitize.fault.corrupt_store_tid = 3;
  opt.sanitize.fault.corrupt_store_index = 0;
  opt.sanitize.fault.corrupt_offset_words = 1;
  const auto s =
      launch(dev, Dim3(2), Dim3(64), opt, NeighborReadKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_TRUE(s.sanitizer.has(Status::kSharedMemoryRace));
  std::string race;
  for (const auto& f : s.sanitizer.findings)
    if (f.status == Status::kSharedMemoryRace) { race = f.message; break; }
  EXPECT_TRUE(contains(race, "write-write")) << race;
  EXPECT_TRUE(contains(race, "thread 4")) << race;
  EXPECT_TRUE(contains(race, "thread 3")) << race;
  // Both conflicting call sites are named in kernel source.
  EXPECT_TRUE(contains(race, "sanitizer_test.cc")) << race;
  EXPECT_EQ(dev.peek_last_error(), Status::kSharedMemoryRace);
}

TEST(G80Check, MissingSyncKernelReportsRace) {
  Device dev;
  auto out = dev.alloc<int>(128);
  const auto s =
      launch(dev, Dim3(2), Dim3(64), sanitized(), MissingSyncKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_TRUE(s.sanitizer.has(Status::kSharedMemoryRace));
  const auto& f = s.sanitizer.findings.front();
  // Store and neighbour-load call sites both appear with the epoch.
  EXPECT_TRUE(contains(f.message, "sanitizer_test.cc")) << f.message;
  EXPECT_TRUE(contains(f.message, "barrier epoch 0")) << f.message;
  EXPECT_TRUE(contains(f.message, "no __syncthreads between them")) << f.message;
}

TEST(G80Check, FaultInjectionHonoursBlockFilter) {
  Device dev;
  auto out = dev.alloc<int>(128);
  auto opt = sanitized();
  opt.sanitize.fault.corrupt_store_tid = 3;
  opt.sanitize.fault.block = 1;  // only the second block is perturbed
  const auto s =
      launch(dev, Dim3(2), Dim3(64), opt, NeighborReadKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_EQ(s.sanitizer.findings.front().block, 1u);
}

// ---- Error-model contract -------------------------------------------------

TEST(G80Check, AbortOnErrorThrowsStatusErrorWithSummary) {
  Device dev;
  auto out = dev.alloc<int>(64);
  auto opt = sanitized(/*abort_on_error=*/true);
  opt.sanitize.fault.skip_barrier_tid = 0;
  try {
    launch(dev, Dim3(1), Dim3(64), opt, PrivateSlotsKernel{}, out);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kBarrierDivergence);
    EXPECT_TRUE(contains(e.what(), "g80check")) << e.what();
    EXPECT_TRUE(contains(e.what(), "sanitizer_test.cc")) << e.what();
  }
  // Sticky like cudaGetLastError: first read returns the error and clears.
  EXPECT_EQ(dev.get_last_error(), Status::kBarrierDivergence);
  EXPECT_EQ(dev.get_last_error(), Status::kSuccess);
}

TEST(G80Check, SanitizedLaunchStillProducesCorrectResults) {
  // An injected corruption perturbs the sanitized sweep only; with a fault
  // armed the launch reruns every block functionally, so the host still
  // reads correct results.
  Device dev;
  auto out = dev.alloc<int>(128);
  auto opt = sanitized();
  opt.sanitize.fault.corrupt_store_tid = 3;
  launch(dev, Dim3(2), Dim3(64), opt, NeighborReadKernel{}, out);
  const auto host = out.copy_to_host();
  for (int b = 0; b < 2; ++b)
    for (int t = 0; t < 64; ++t)
      ASSERT_EQ(host[b * 64 + t], ((t + 1) % 64) * 2);
}

TEST(G80Check, FindingsDedupAcrossBlocksAndCapAtMax) {
  Device dev;
  auto out = dev.alloc<int>(64 * 64);
  auto opt = sanitized();
  opt.sanitize.max_findings = 4;
  const auto s =
      launch(dev, Dim3(64), Dim3(64), opt, MissingSyncKernel{}, out);
  ASSERT_FALSE(s.sanitizer.clean());
  EXPECT_LE(s.sanitizer.findings.size(), 4u);
  EXPECT_EQ(s.sanitizer.blocks_checked, 64u);  // capped findings, full sweep
}

TEST(G80Check, SummaryListsEveryFinding) {
  Device dev;
  auto out = dev.alloc<int>(64);
  const auto s =
      launch(dev, Dim3(1), Dim3(64), sanitized(), MissingSyncKernel{}, out);
  const std::string text = s.sanitizer.summary();
  EXPECT_TRUE(contains(text, "g80check")) << text;
  EXPECT_TRUE(contains(text, "shared memory race")) << text;
}

// ---- Shadow memory unit behaviour ----------------------------------------

TEST(SharedShadow, SameThreadAccessesNeverRace) {
  SharedShadow shadow(256);
  const AccessSite site{1, "k.cc", 10};
  EXPECT_FALSE(shadow.on_write(0, 0, 0, 4, site));
  EXPECT_FALSE(shadow.on_read(0, 0, 0, 4, site));
  EXPECT_FALSE(shadow.on_write(0, 0, 0, 4, site));
}

TEST(SharedShadow, CrossEpochAccessesNeverRace) {
  SharedShadow shadow(256);
  const AccessSite site{1, "k.cc", 10};
  EXPECT_FALSE(shadow.on_write(0, /*epoch=*/0, 0, 4, site));
  EXPECT_FALSE(shadow.on_read(1, /*epoch=*/1, 0, 4, site));
  EXPECT_FALSE(shadow.on_write(2, /*epoch=*/2, 0, 4, site));
}

TEST(SharedShadow, WideAccessRacesOnAnyOverlappingWord) {
  SharedShadow shadow(256);
  const AccessSite a{1, "k.cc", 10}, b{2, "k.cc", 20};
  // Thread 0 writes word 3; thread 1's 16-byte write covers words 0..3.
  EXPECT_FALSE(shadow.on_write(0, 0, 12, 4, a));
  const auto race = shadow.on_write(1, 0, 0, 16, b);
  ASSERT_TRUE(race.has_value());
  EXPECT_NE(race->find("write-write"), std::string::npos) << *race;
}

TEST(SharedShadow, SecondReaderSlotCatchesWriteAfterTwoReaders) {
  SharedShadow shadow(256);
  const AccessSite r1{1, "k.cc", 10}, r2{2, "k.cc", 11}, w{3, "k.cc", 12};
  EXPECT_FALSE(shadow.on_read(3, 0, 0, 4, r1));
  EXPECT_FALSE(shadow.on_read(5, 0, 0, 4, r2));
  // Thread 5 writing would match the last reader (itself) — the extra
  // reader slot still exposes the conflict with thread 3's read.
  const auto race = shadow.on_write(5, 0, 0, 4, w);
  ASSERT_TRUE(race.has_value());
  EXPECT_NE(race->find("read-write"), std::string::npos) << *race;
  EXPECT_NE(race->find("thread 3"), std::string::npos) << *race;
}

}  // namespace
}  // namespace g80
