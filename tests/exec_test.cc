// Tests for the fiber engine and block runner: CUDA barrier semantics,
// shared-memory arena layout, divergent-barrier detection, exception
// propagation, fiber handoff, lazy fiber claiming, the stack guard page,
// the FP control state a body sees, and unwinding from inside a body.
// They exercise the engine the build selected (exec/fiber.h): the fast
// switch in a plain x86-64 build, ucontext under scripts/check_sanitize.sh /
// check_tsan.sh.
#include <gtest/gtest.h>

#include <alloca.h>
#include <execinfo.h>
#include <sys/wait.h>
#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include <algorithm>
#include <cfenv>
#include <cfloat>
#include <csignal>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "exec/block_runner.h"
#include "exec/cancel.h"
#include "exec/fiber.h"

namespace g80 {
namespace {

// ---- Fiber ------------------------------------------------------------------

TEST(Fiber, RunsToCompletion) {
  Fiber f;
  int x = 0;
  f.start([&] { x = 42; });
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber f;
  std::vector<int> log;
  f.start([&] {
    log.push_back(1);
    f.yield();
    log.push_back(2);
    f.yield();
    log.push_back(3);
  });
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  log.push_back(10);
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  log.push_back(20);
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
  EXPECT_EQ(log, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, ExceptionPropagatesToScheduler) {
  Fiber f;
  f.start([] { throw Error("boom"); });
  EXPECT_THROW(f.resume(), Error);
  EXPECT_EQ(f.state(), Fiber::State::kDone);
}

TEST(Fiber, ExceptionAfterYieldRethrowsOnResume) {
  Fiber f(64 * 1024);
  f.start([&] {
    f.yield();
    throw std::runtime_error("late failure");
  });
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_EQ(f.state(), Fiber::State::kDone);
}

TEST(Fiber, RawEntryRearmReusesTheStack) {
  Fiber f(64 * 1024);
  f.start([] {});
  EXPECT_EQ(f.resume(), Fiber::State::kDone);

  // Re-arm the same fiber (stack reuse) with the raw entry overload.
  struct Box {
    Fiber* fiber;
    int hits = 0;
  } box{&f};
  f.start(
      +[](void* arg) {
        auto* b = static_cast<Box*>(arg);
        ++b->hits;
        b->fiber->yield();
        ++b->hits;
      },
      &box);
  EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
  EXPECT_EQ(box.hits, 1);
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
  EXPECT_EQ(box.hits, 2);
}

TEST(Fiber, HandoffReturnsThroughTheChain) {
  Fiber a(64 * 1024), b(64 * 1024);
  std::vector<int> order;
  a.start([&] {
    order.push_back(1);
    a.yield_to(b);  // b's first entry comes from a, not the scheduler
    order.push_back(4);
  });
  b.start([&] {
    order.push_back(2);
    b.yield();  // returns from the resume() that entered a
    order.push_back(3);
    b.yield_to(a);
    throw std::runtime_error("after the handoff back");
  });
  // One resume() runs a then b; the state is the one b left behind.
  EXPECT_EQ(a.resume(), Fiber::State::kSuspended);
  EXPECT_EQ(a.state(), Fiber::State::kSuspended);
  EXPECT_EQ(b.state(), Fiber::State::kSuspended);
  // Resuming b hands back to a, which finishes: kDone is a's.
  EXPECT_EQ(b.resume(), Fiber::State::kDone);
  EXPECT_EQ(a.state(), Fiber::State::kDone);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  // b is still parked in its handoff; resuming it runs it to the throw.
  EXPECT_THROW(b.resume(), std::runtime_error);
  EXPECT_EQ(b.state(), Fiber::State::kDone);
}

TEST(Fiber, HandoffRethrowsFromTheFiberThatGaveControlBack) {
  Fiber a(64 * 1024), b(64 * 1024);
  a.start([&] { a.yield_to(b); });
  b.start([] { throw std::runtime_error("thrown by b"); });
  try {
    a.resume();
    FAIL() << "b's exception did not surface from a.resume()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown by b");
  }
  EXPECT_EQ(a.state(), Fiber::State::kSuspended);
  EXPECT_EQ(b.state(), Fiber::State::kDone);
  EXPECT_EQ(a.resume(), Fiber::State::kDone);  // a itself is unharmed
}

TEST(Fiber, ReusableAfterCompletion) {
  Fiber f;
  int sum = 0;
  for (int i = 0; i < 5; ++i) {
    f.start([&, i] { sum += i; });
    f.resume();
  }
  EXPECT_EQ(sum, 10);
}

TEST(Fiber, DeepStackSurvives) {
  Fiber f(256 * 1024);
  double result = 0;
  f.start([&] {
    // ~2000 frames of recursion on the fiber stack.
    struct Rec {
      static double go(int n) { return n == 0 ? 1.0 : 1.0 + go(n - 1); }
    };
    result = Rec::go(2000);
  });
  f.resume();
  EXPECT_EQ(result, 2001.0);
}

// Runs `probe` inside fiber bodies at each way control can arrive there: a
// first entry from the scheduler, a resume after a yield, a first entry by
// handoff, and a handoff back.  Returns what it saw, in that order.
template <class Probe>
auto probe_each_arrival(Probe probe) {
  std::vector<decltype(probe())> seen;
  Fiber a(64 * 1024), b(64 * 1024);
  a.start([&] {
    seen.push_back(probe());
    a.yield();
    seen.push_back(probe());
    a.yield_to(b);
    seen.push_back(probe());
  });
  b.start([&] {
    seen.push_back(probe());
    b.yield_to(a);
  });
  EXPECT_EQ(a.resume(), Fiber::State::kSuspended);
  EXPECT_EQ(a.resume(), Fiber::State::kDone);
  return seen;
}

#if defined(__x86_64__)
// ---- FP control state -------------------------------------------------------

constexpr unsigned kMxcsrRoundMask = 0x6000, kMxcsrRoundUp = 0x4000;
constexpr unsigned kMxcsrFlushToZero = 0x8000;

// Puts the calling thread in round-upward + flush-to-zero mode for its
// lifetime, then restores the thread's previous FP environment.
struct UpwardFlushToZero {
  std::fenv_t saved_env{};
  unsigned saved_mxcsr = _mm_getcsr();
  UpwardFlushToZero() {
    std::fegetenv(&saved_env);
    std::fesetround(FE_UPWARD);
    _mm_setcsr(_mm_getcsr() | kMxcsrFlushToZero);
  }
  ~UpwardFlushToZero() {
    std::fesetenv(&saved_env);
    _mm_setcsr(saved_mxcsr);
  }
};

// What the running code sees: the x87 rounding mode, the SSE rounding mode
// and FTZ bit, and SSE arithmetic that obeys them: rounding upward makes 1/3
// larger in magnitude than -1/3, and FTZ flushes a denormal quotient to 0.
bool sees_upward_flush_to_zero() {
  volatile float one = 1.0f, minus_one = -1.0f, three = 3.0f;
  volatile float tiny = FLT_MIN;
  const unsigned mxcsr = _mm_getcsr();
  return std::fegetround() == FE_UPWARD &&
         (mxcsr & kMxcsrRoundMask) == kMxcsrRoundUp &&
         (mxcsr & kMxcsrFlushToZero) != 0 &&
         one / three > -(minus_one / three) && tiny / three == 0.0f;
}

TEST(Fiber, BodySeesTheSchedulersFpControlState) {
  UpwardFlushToZero mode;  // set by the scheduler before arming
  ASSERT_TRUE(sees_upward_flush_to_zero());
  EXPECT_EQ(probe_each_arrival(sees_upward_flush_to_zero),
            std::vector<bool>(4, true));
  EXPECT_TRUE(sees_upward_flush_to_zero());  // and the scheduler still does
}
#endif  // __x86_64__

// ---- Unwinding --------------------------------------------------------------

// Frames glibc's unwinder finds from here down to the base of the stack.
[[gnu::noinline]] int stack_depth() {
  void* frames[256];
  return backtrace(frames, 256);
}

TEST(Fiber, BacktraceInsideABodyEndsAtTheFiberBase) {
  const std::vector<int> depths = probe_each_arrival(stack_depth);
  ASSERT_EQ(depths.size(), 4u);
  // The unwind stops at the fiber's entry thunk, a handful of frames below
  // the body, never wandering into the scheduler's stack or garbage.
  for (int d : depths) {
    EXPECT_GT(d, 0);
    EXPECT_LT(d, 16);
  }
  EXPECT_EQ(std::count(depths.begin(), depths.end(), depths[0]), 4);
}

// ---- Guard page -------------------------------------------------------------

// Claims `bytes` of fresh stack and touches it a page at a time from the top
// down, the way a deepening call chain does, so a stack too small for it
// reaches the guard page before anything mapped below.
[[gnu::noinline]] void touch_stack(std::size_t bytes) {
  auto* p = static_cast<volatile char*>(alloca(bytes));
  for (std::size_t off = bytes; off > 0;
       off -= std::min<std::size_t>(off, 4096))
    p[off - 1] = 1;
}

void run_fiber_using(std::size_t bytes) {
  Fiber f;
  // Mapped after f, so usually right below it: without the guard page an
  // overflow of f would land in this stack and go unnoticed.
  Fiber neighbour;
  f.start([bytes] { touch_stack(bytes); });
  EXPECT_EQ(f.resume(), Fiber::State::kDone);
}

// A plain build dies of the signal itself; a sanitizer runtime catches it on
// its alternate signal stack, reports it and exits non-zero.
#if defined(G80_ASAN_FIBERS) || defined(G80_TSAN_FIBERS)
bool died_of_segv(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) != 0;
}
constexpr const char* kSegvReport = "SEGV|stack-overflow";
#else
bool died_of_segv(int status) {
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
}
constexpr const char* kSegvReport = "";
#endif

TEST(FiberDeathTest, OverflowHitsTheGuardPage) {
  EXPECT_EXIT(run_fiber_using(Fiber::kStackBytes + 16 * 1024), died_of_segv,
              kSegvReport);
}

TEST(Fiber, UsableStackIsTheFullSize) {
  // Everything but a few KiB of the default stack; the guard page takes
  // nothing from it.
  run_fiber_using(Fiber::kStackBytes - 8 * 1024);
}

// ---- SharedArena ------------------------------------------------------------

TEST(SharedArena, SameLayoutForAllThreads) {
  SharedArena arena(1024);
  arena.begin_block(2);
  std::byte* a0 = arena.allocate(0, 64);
  std::byte* b0 = arena.allocate(0, 32);
  std::byte* a1 = arena.allocate(1, 64);
  std::byte* b1 = arena.allocate(1, 32);
  EXPECT_EQ(a0, a1);
  EXPECT_EQ(b0, b1);
  EXPECT_NE(a0, b0);
  EXPECT_GE(arena.bytes_used(), 96u);
}

TEST(SharedArena, MismatchedLayoutThrows) {
  SharedArena arena(1024);
  arena.begin_block(2);
  arena.allocate(0, 64);
  EXPECT_THROW(arena.allocate(1, 128), Error);
}

TEST(SharedArena, OverflowThrows) {
  SharedArena arena(128);
  arena.begin_block(1);
  arena.allocate(0, 64);
  EXPECT_THROW(arena.allocate(0, 128), Error);
}

TEST(SharedArena, ResetsBetweenBlocks) {
  SharedArena arena(256);
  for (int block = 0; block < 3; ++block) {
    arena.begin_block(1);
    EXPECT_NO_THROW(arena.allocate(0, 200));
  }
}

TEST(SharedArena, SixteenByteAlignment) {
  SharedArena arena(1024);
  arena.begin_block(1);
  arena.allocate(0, 3);  // odd size
  std::byte* second = arena.allocate(0, 16);
  EXPECT_EQ((second - arena.data()) % 16, 0);
}

// ---- BlockRunner barriers ----------------------------------------------------

TEST(BlockRunner, AllThreadsRun) {
  BlockRunner runner(64, 16 * 1024);
  std::vector<int> hits(64, 0);
  runner.run(64, [&](int tid) { ++hits[tid]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(BlockRunner, BarrierOrdersPhases) {
  // Classic producer/consumer: every thread writes its slot, syncs, then
  // reads its neighbour's slot.  Without a real barrier, thread 0 would read
  // thread 63's not-yet-written slot.
  BlockRunner runner(64, 16 * 1024);
  std::vector<int> slot(64, -1), seen(64, -1);
  runner.run(64, [&](int tid) {
    slot[tid] = tid * 10;
    runner.sync(tid);
    seen[tid] = slot[(tid + 1) % 64];
  });
  for (int t = 0; t < 64; ++t) EXPECT_EQ(seen[t], ((t + 1) % 64) * 10);
}

TEST(BlockRunner, ManyBarriersInLoop) {
  BlockRunner runner(32, 16 * 1024);
  std::vector<int> counter(1, 0);
  runner.run(32, [&](int tid) {
    for (int i = 0; i < 10; ++i) {
      if (tid == 0) ++counter[0];
      runner.sync(tid);
      // Every thread observes the same phase count after the barrier.
      EXPECT_EQ(counter[0], i + 1);
      runner.sync(tid);
    }
  });
  EXPECT_EQ(runner.barriers_executed(), 20);
}

TEST(BlockRunner, BarrierReleasesForLiveThreadsOnly) {
  // Half the threads exit before the barrier: the survivors' barrier still
  // releases (hardware counts only active threads) and they complete.
  BlockRunner runner(8, 16 * 1024);
  std::vector<int> after(8, 0);
  EXPECT_NO_THROW(runner.run(8, [&](int tid) {
    if (tid >= 4) return;  // early exit
    runner.sync(tid);
    after[tid] = 1;
  }));
  for (int t = 0; t < 4; ++t) EXPECT_EQ(after[t], 1);
  for (int t = 4; t < 8; ++t) EXPECT_EQ(after[t], 0);
}

TEST(BlockRunner, AllExitWithoutBarrierIsFine) {
  BlockRunner runner(8, 16 * 1024);
  EXPECT_NO_THROW(runner.run(8, [](int) {}));
}

TEST(BlockRunner, KernelExceptionPropagates) {
  BlockRunner runner(8, 16 * 1024);
  EXPECT_THROW(
      runner.run(8, [&](int tid) { if (tid == 3) throw Error("thread 3"); }),
      Error);
  // The runner must be reusable after an aborted launch.
  std::vector<int> hits(8, 0);
  EXPECT_NO_THROW(runner.run(8, [&](int tid) { ++hits[tid]; }));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

TEST(BlockRunner, ThreadsRunInOrderBetweenBarriers) {
  // With barrier-only yields, threads run to the barrier in tid order —
  // the determinism the functional model documents.
  BlockRunner runner(16, 16 * 1024);
  std::vector<int> order;
  runner.run(16, [&](int tid) {
    order.push_back(tid);
    runner.sync(tid);
    order.push_back(100 + tid);
  });
  for (int t = 0; t < 16; ++t) {
    EXPECT_EQ(order[t], t);
    EXPECT_EQ(order[16 + t], 100 + t);
  }
}

// ---- Barrier-free blocks and fiber claiming ----------------------------------

TEST(BlockRunner, BarrierFreeBlockRunsAllThreadsInOrder) {
  BlockRunner runner(256, 16 * 1024);
  std::vector<int> order;
  runner.run(256, [&](int tid) { order.push_back(tid); });
  ASSERT_EQ(order.size(), 256u);
  for (int t = 0; t < 256; ++t) EXPECT_EQ(order[t], t);
  EXPECT_EQ(runner.barriers_executed(), 0);
}

TEST(BlockRunner, BarrierFreeSharedMemoryWorks) {
  // Threads carried one after another on the same fiber each get their own
  // allocation cursor, so every one maps the block's single layout.
  BlockRunner runner(8, 16 * 1024);
  std::vector<int*> slots(8, nullptr);
  runner.run(8, [&](int tid) {
    auto* p = reinterpret_cast<int*>(runner.shared().allocate(tid, 8 * 4));
    p[tid] = tid;
    slots[tid] = p;
  });
  EXPECT_GE(runner.shared().bytes_used(), 32u);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(slots[t], slots[0]);
    EXPECT_EQ(slots[0][t], t);
  }
}

// Fibers built for one 256-thread block: `parks(tid)` says whether thread
// tid reaches the barrier or returns before it.
template <class Parks>
std::size_t fibers_for_block(const Parks& parks) {
  BlockRunner runner(256, 16 * 1024);
  const auto body = [&](int tid) {
    if (!parks(tid)) return;
    runner.sync(tid);
  };
  runner.run(256, body);
  const std::size_t built = runner.fibers_built();
  // A second run reuses every fiber the first one built.
  runner.run(256, body);
  EXPECT_EQ(runner.fibers_built(), built);
  return built;
}

TEST(BlockRunner, FibersBuiltMatchBlockShape) {
  // Barrier-free: one fiber carries every thread.
  EXPECT_EQ(fibers_for_block([](int) { return false; }), 1u);
  // Every thread parks: one fiber each.
  EXPECT_EQ(fibers_for_block([](int) { return true; }), 256u);
  // Odd threads exit before the barrier: each even thread keeps a fiber, and
  // every odd thread runs on the stack the next even thread then parks on,
  // except the last, whose fiber is the 129th.
  EXPECT_EQ(fibers_for_block([](int t) { return t % 2 == 0; }), 129u);
  // `t < 200` guard: 200 parked threads, then one fiber for the other 56.
  EXPECT_EQ(fibers_for_block([](int t) { return t < 200; }), 201u);
}

TEST(BlockRunner, BarrierFreeBlockIsCancellableBetweenThreads) {
  // The fiber carrying a barrier-free block checks the token before each
  // thread it moves on to, so a watchdog preempts the block mid-way.
  BlockRunner runner(64, 16 * 1024);
  CancelToken token;
  runner.set_cancel_token(&token);
  int ran = 0;
  try {
    runner.run(64, [&](int tid) {
      ++ran;
      if (tid == 9) token.request(Status::kTimeout, "test watchdog");
    });
    FAIL() << "cancelled run completed";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
  }
  EXPECT_EQ(ran, 10);
  // The runner is reusable once the token is detached.
  runner.set_cancel_token(nullptr);
  ran = 0;
  runner.run(64, [&](int) { ++ran; });
  EXPECT_EQ(ran, 64);
}

}  // namespace
}  // namespace g80
