// g80resil tests: watchdog timeouts (wall-clock and modeled), retry with
// exponential backoff, graceful degradation, Device::reset recovery
// semantics, and the per-stream error-isolation contract on g80rt — a
// kernel (or worker) that throws surfaces as a g80::Status on the launching
// stream instead of tearing the process down.
#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "resil/resilience.h"
#include "rt/runtime.h"

namespace g80 {
namespace {

// ---- Kernels ------------------------------------------------------------------

struct FillKernel {
  int n = 0;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) Out.st(i, i * 7 + 1);
  }
};

// Block-wide reverse through shared memory: exercises barriers, shared
// allocation, and the sanitize pass — all the machinery the fallback ladder
// degrades — while staying bit-deterministic at every fallback level.
struct ReverseKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& in,
                  DeviceBuffer<int>& out) const {
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

// A cooperative kernel wedged in a __syncthreads() loop: never terminates on
// its own, but every barrier release is a cancellation point, so the
// g80resil watchdog can preempt it.
struct WedgeKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    Out.st(ctx.global_thread_x(), 0);
    for (;;) ctx.sync();
  }
};

// A kernel functor whose host code throws a plain std::exception from one
// thread — the failure mode that used to std::terminate a g80rt stream
// thread via an unhandled-exception path.
struct ThrowingKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<int>& out) const {
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (i == 7) throw std::runtime_error("kernel bug: host exception");
    Out.st(i, i);
  }
};

template <class Fn>
std::pair<Status, std::string> catch_status(Fn&& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return {e.status(), e.what()};
  }
  return {Status::kSuccess, "no error raised"};
}

// ---- Wall-clock watchdog ------------------------------------------------------

TEST(ResilWatchdog, WallClockTimeoutCancelsWedgedLaunch) {
  Device dev;
  auto out = dev.alloc<int>(64);
  LaunchOptions opt;
  opt.resilience.enabled = true;
  opt.resilience.wall_timeout_s = 0.2;
  opt.resilience.max_retries = 0;  // a wedged kernel wedges identically again
  opt.resilience.backoff_initial_s = 0;
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(64), opt, WedgeKernel{}, out);
  });
  EXPECT_EQ(code, Status::kTimeout);
  EXPECT_NE(msg.find("wall-clock"), std::string::npos) << msg;
  EXPECT_EQ(dev.peek_last_error(), Status::kTimeout);
  // The launch returned (did not wedge the process) and the device is
  // recoverable without tearing anything else down.
  dev.reset();
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
}

TEST(ResilWatchdog, RunResilientRecordsTimeoutProvenance) {
  ResiliencePolicy policy;
  policy.enabled = true;
  policy.wall_timeout_s = 0.05;
  policy.max_retries = 0;
  policy.backoff_initial_s = 0;
  ResilienceStats stats;
  const auto [code, msg] = catch_status([&] {
    run_resilient(policy, stats, [](const AttemptConfig& att) {
      ASSERT_NE(att.cancel, nullptr);
      for (;;) {
        att.cancel->check("test body");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  EXPECT_EQ(code, Status::kTimeout);
  EXPECT_TRUE(stats.timed_out);
  EXPECT_EQ(stats.attempts, 1);
  ASSERT_EQ(stats.history.size(), 1u);
  EXPECT_EQ(stats.history[0].status, Status::kTimeout);
}

TEST(ResilWatchdog, ModeledTimeoutRejectsOverBudgetKernel) {
  Device dev;
  auto out = dev.alloc<int>(256);
  LaunchOptions opt;
  opt.resilience.enabled = true;
  opt.resilience.modeled_timeout_s = 1e-12;  // any kernel exceeds this
  opt.resilience.max_retries = 0;
  opt.resilience.backoff_initial_s = 0;
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(4), Dim3(64), opt, FillKernel{256}, out);
  });
  EXPECT_EQ(code, Status::kTimeout);
  EXPECT_NE(msg.find("modeled"), std::string::npos) << msg;
  EXPECT_EQ(dev.peek_last_error(), Status::kTimeout);
}

// ---- Retry / backoff / fallback ----------------------------------------------

TEST(ResilRetry, TransientFailuresRecoveredWithBackoffHistory) {
  Device dev;
  const int n = 256;
  auto out = dev.alloc<int>(n);
  LaunchOptions opt;
  opt.resilience.enabled = true;
  opt.resilience.max_retries = 2;
  opt.resilience.inject_transient_failures = 2;
  opt.resilience.backoff_initial_s = 1e-4;
  opt.resilience.backoff_multiplier = 2.0;
  const auto stats = launch(dev, Dim3(4), Dim3(64), opt, FillKernel{n}, out);

  const auto& r = stats.resilience;
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.retries(), 2);
  EXPECT_TRUE(r.recovered);
  EXPECT_FALSE(r.timed_out);
  ASSERT_EQ(r.history.size(), 3u);
  EXPECT_EQ(r.history[0].status, Status::kLaunchFailure);
  EXPECT_EQ(r.history[1].status, Status::kLaunchFailure);
  EXPECT_EQ(r.history[2].status, Status::kSuccess);
  // Exponential backoff: 1e-4 after the first failure, 2e-4 after the second.
  EXPECT_DOUBLE_EQ(r.history[0].backoff_s, 1e-4);
  EXPECT_DOUBLE_EQ(r.history[1].backoff_s, 2e-4);
  EXPECT_DOUBLE_EQ(r.total_backoff_s, 3e-4);
  // allow_fallback escalated one level per retry; the surviving attempt ran
  // at level 2 (sequential, no sanitize pass, no trace sample).
  EXPECT_EQ(r.fallback_level, 2);
  EXPECT_EQ(r.history[2].fallback_level, 2);
  // Recovery is visible host-side as the informational sticky status.
  EXPECT_EQ(dev.get_last_error(), Status::kRecovered);
  // And the launch's outputs are those of a normal run.
  const auto host = out.copy_to_host();
  for (int i = 0; i < n; ++i) ASSERT_EQ(host[i], i * 7 + 1);
}

TEST(ResilRetry, ExhaustedBudgetRethrowsWithFullHistory) {
  ResiliencePolicy policy;
  policy.enabled = true;
  policy.max_retries = 1;
  policy.inject_transient_failures = 3;  // more than the budget
  policy.backoff_initial_s = 0;
  ResilienceStats stats;
  const auto [code, msg] = catch_status([&] {
    run_resilient(policy, stats, [](const AttemptConfig&) {});
  });
  EXPECT_EQ(code, Status::kLaunchFailure);
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_FALSE(stats.recovered);
  ASSERT_EQ(stats.history.size(), 2u);
  EXPECT_EQ(stats.history[0].status, Status::kLaunchFailure);
  EXPECT_EQ(stats.history[1].status, Status::kLaunchFailure);
}

TEST(ResilRetry, FallbackDisabledRetriesIdenticalConfiguration) {
  ResiliencePolicy policy;
  policy.enabled = true;
  policy.max_retries = 2;
  policy.inject_transient_failures = 2;
  policy.allow_fallback = false;
  policy.backoff_initial_s = 0;
  ResilienceStats stats;
  run_resilient(policy, stats, [](const AttemptConfig& att) {
    EXPECT_EQ(att.fallback_level, 0);
  });
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.fallback_level, 0);
  for (const auto& h : stats.history) EXPECT_EQ(h.fallback_level, 0);
}

TEST(ResilRetry, OutputsBitIdenticalAcrossFallbackLevels) {
  const int n = 512;
  std::vector<int> input(n);
  for (int i = 0; i < n; ++i) input[i] = i * 13 - 5;

  // Baseline: resilience off, block-parallel pool, sanitize pass on.
  WorkerPool pool(4);
  Device base_dev;
  auto base_in = base_dev.alloc<int>(n);
  auto base_out = base_dev.alloc<int>(n);
  base_in.copy_from_host(input);
  LaunchOptions base_opt;
  base_opt.pool = &pool;
  base_opt.sanitize.enabled = true;
  launch(base_dev, Dim3(n / 128), Dim3(128), base_opt, ReverseKernel{},
         base_in, base_out);
  const auto expected = base_out.copy_to_host();

  // Degraded: two injected transient failures walk the launch down the full
  // fallback ladder (pool -> sequential -> no sanitize pass, one traced
  // block because sanitizing was requested).
  Device dev;
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  in.copy_from_host(input);
  LaunchOptions opt = base_opt;
  opt.resilience.enabled = true;
  opt.resilience.max_retries = 2;
  opt.resilience.inject_transient_failures = 2;
  opt.resilience.backoff_initial_s = 0;
  const auto stats =
      launch(dev, Dim3(n / 128), Dim3(128), opt, ReverseKernel{}, in, out);
  EXPECT_EQ(stats.resilience.fallback_level, 2);
  EXPECT_EQ(out.copy_to_host(), expected);
}

// ---- Attempt observer -----------------------------------------------------------

// Writes each attempt event as one token, e.g. "start(1,1)", "fail(1,retry)",
// "success(2,recovered)".
class RecordingObserver : public AttemptObserver {
 public:
  void on_attempt_start(int attempt, int fallback_level) override {
    events.push_back("start(" + std::to_string(attempt) + "," +
                     std::to_string(fallback_level) + ")");
  }
  void on_attempt_failure(int attempt, Status, bool will_retry) override {
    events.push_back("fail(" + std::to_string(attempt) + "," +
                     (will_retry ? "retry" : "final") + ")");
  }
  void on_attempt_success(int attempt, bool recovered) override {
    events.push_back("success(" + std::to_string(attempt) + "," +
                     (recovered ? "recovered" : "false") + ")");
  }
  std::vector<std::string> events;
};

TEST(ResilAttemptObserver, SeesExactlyTheAttemptsOfItsOwnLaunch) {
  struct Row {
    const char* name;
    bool enabled;
    int max_retries;
    int inject;
    std::vector<std::string> events;
    bool throws;
  };
  const std::vector<Row> rows = {
      {"policy disabled", false, 2, 0, {"start(0,0)", "success(0,false)"},
       false},
      {"two injected transients", true, 2, 2,
       {"start(0,0)", "fail(0,retry)", "start(1,1)", "fail(1,retry)",
        "start(2,2)", "success(2,recovered)"},
       false},
      {"budget exhausted", true, 1, 3,
       {"start(0,0)", "fail(0,retry)", "start(1,1)", "fail(1,final)"}, true},
  };
  for (const Row& row : rows) {
    Device dev;
    auto out = dev.alloc<int>(256);
    RecordingObserver obs;
    LaunchOptions opt;
    opt.resilience.enabled = row.enabled;
    opt.resilience.max_retries = row.max_retries;
    opt.resilience.inject_transient_failures = row.inject;
    opt.resilience.backoff_initial_s = 0;
    opt.attempts = &obs;
    const auto [code, msg] = catch_status(
        [&] { launch(dev, Dim3(4), Dim3(64), opt, FillKernel{256}, out); });
    EXPECT_EQ(code != Status::kSuccess, row.throws) << row.name << ": " << msg;
    EXPECT_EQ(obs.events, row.events) << row.name;
  }

  // Two threads launching at once, each with its own observer: each sees
  // only its own launch, and a later launch on the same thread with no
  // observer adds nothing.
  const std::vector<std::vector<std::string>> expected = {
      {"start(0,0)", "success(0,false)"},
      {"start(0,0)", "fail(0,retry)", "start(1,1)", "success(1,recovered)"}};
  RecordingObserver observers[2];
  std::latch both_ready(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Device dev;
      auto out = dev.alloc<int>(256);
      both_ready.arrive_and_wait();
      LaunchOptions opt;
      opt.resilience.enabled = true;
      opt.resilience.inject_transient_failures = t;
      opt.resilience.backoff_initial_s = 0;
      opt.attempts = &observers[t];
      launch(dev, Dim3(4), Dim3(64), opt, FillKernel{256}, out);
      opt.attempts = nullptr;
      launch(dev, Dim3(4), Dim3(64), opt, FillKernel{256}, out);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) EXPECT_EQ(observers[t].events, expected[t]) << t;
}

// ---- Device::reset recovery semantics ----------------------------------------

TEST(ResilReset, ClearsErrorAllocationsLedgerAndBumpsGeneration) {
  Device dev;
  const std::uint64_t gen0 = dev.generation();
  auto d = dev.alloc<float>(1024);
  std::vector<float> host(1024, 1.0f);
  d.copy_from_host(host);
  (void)dev.alloc_constant<float>(12 * 1024);  // 48 KB of constant space
  dev.record_status(Status::kInvalidAddress);

  dev.reset();
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  EXPECT_EQ(dev.ledger().total_bytes(), 0u);
  EXPECT_EQ(dev.generation(), gen0 + 1);
  // The whole constant space is available again.
  (void)dev.alloc_constant<float>(15 * 1024);  // 60 KB fits post-reset
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
}

TEST(ResilReset, HooksRunOncePerResetAndAreRemovable) {
  Device dev;
  int calls = 0;
  const auto id = dev.add_reset_hook([&] { ++calls; });
  dev.reset();
  EXPECT_EQ(calls, 1);
  dev.remove_reset_hook(id);
  dev.reset();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dev.generation(), 2u);
}

// ---- Per-stream error isolation (satellite: no std::terminate) ---------------

TEST(ResilStream, ThrowingKernelSurfacesAsStatusSynchronously) {
  Device dev;
  auto out = dev.alloc<int>(64);
  LaunchOptions opt;
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(1), Dim3(64), opt, ThrowingKernel{}, out);
  });
  EXPECT_EQ(code, Status::kLaunchFailure);
  EXPECT_NE(msg.find("kernel threw"), std::string::npos) << msg;
  EXPECT_EQ(dev.peek_last_error(), Status::kLaunchFailure);
}

TEST(ResilStream, WorkerThreadExceptionSurfacesOnCaller) {
  // Block-parallel path: the throw happens on a pool worker; parallel_for
  // must ferry it back to the launching thread as the same StatusError.
  Device dev;
  WorkerPool pool(4);
  auto out = dev.alloc<int>(1024);
  LaunchOptions opt;
  opt.pool = &pool;
  const auto [code, msg] = catch_status([&] {
    launch(dev, Dim3(16), Dim3(64), opt, ThrowingKernel{}, out);
  });
  EXPECT_EQ(code, Status::kLaunchFailure);
  EXPECT_EQ(dev.peek_last_error(), Status::kLaunchFailure);
}

TEST(ResilStream, AsyncKernelFailureIsolatedToItsStream) {
  Device dev;
  rt::Runtime rt(dev);
  auto bad = rt.stream_create();
  auto good = rt.stream_create();

  auto bad_out = dev.alloc<int>(64);
  auto good_out = dev.alloc<int>(256);
  LaunchOptions opt;
  rt.launch_async(bad, Dim3(1), Dim3(64), opt, nullptr, ThrowingKernel{},
                  bad_out);
  rt.launch_async(good, Dim3(4), Dim3(64), opt, nullptr, FillKernel{256},
                  good_out);

  // The healthy stream is unaffected by its sibling's failure.
  rt.stream_synchronize(good);
  EXPECT_EQ(rt.stream_get_last_error(good), Status::kSuccess);
  const auto host = good_out.copy_to_host();
  for (int i = 0; i < 256; ++i) ASSERT_EQ(host[i], i * 7 + 1);

  // The failed stream reports the Status (peek does not clear), and
  // synchronize rethrows it instead of std::terminate-ing the stream thread.
  EXPECT_THROW(rt.stream_synchronize(bad), StatusError);
  EXPECT_EQ(rt.stream_get_last_error(bad), Status::kLaunchFailure);
  EXPECT_EQ(rt.stream_get_last_error(bad), Status::kLaunchFailure);

  // Clearing the stream's sticky failure makes it usable again.
  rt.stream_clear_error(bad);
  EXPECT_EQ(rt.stream_get_last_error(bad), Status::kSuccess);
  rt.launch_async(bad, Dim3(1), Dim3(64), opt, nullptr, FillKernel{64},
                  bad_out);
  rt.stream_synchronize(bad);
  const auto recovered = bad_out.copy_to_host();
  for (int i = 0; i < 64; ++i) ASSERT_EQ(recovered[i], i * 7 + 1);
}

TEST(ResilStream, WatchdogTimeoutDoesNotWedgeSiblingStreams) {
  Device dev;
  rt::Runtime rt(dev);
  auto slow = rt.stream_create();
  auto fast = rt.stream_create();

  auto slow_out = dev.alloc<int>(32);
  auto fast_out = dev.alloc<int>(256);
  LaunchOptions wedge_opt;
  wedge_opt.resilience.enabled = true;
  wedge_opt.resilience.wall_timeout_s = 0.2;
  wedge_opt.resilience.max_retries = 0;
  wedge_opt.resilience.backoff_initial_s = 0;
  rt.launch_async(slow, Dim3(1), Dim3(32), wedge_opt, nullptr, WedgeKernel{},
                  slow_out);
  LaunchOptions opt;
  rt.launch_async(fast, Dim3(4), Dim3(64), opt, nullptr, FillKernel{256},
                  fast_out);

  // The sibling stream completes while the wedged one is being timed out.
  rt.stream_synchronize(fast);
  const auto host = fast_out.copy_to_host();
  for (int i = 0; i < 256; ++i) ASSERT_EQ(host[i], i * 7 + 1);

  const auto [code, msg] =
      catch_status([&] { rt.stream_synchronize(slow); });
  EXPECT_EQ(code, Status::kTimeout) << msg;
  EXPECT_EQ(rt.stream_get_last_error(slow), Status::kTimeout);
  EXPECT_EQ(rt.stream_get_last_error(fast), Status::kSuccess);
}

TEST(ResilStream, DeviceResetDrainsStreamsAndClearsTheirErrors) {
  Device dev;
  rt::Runtime rt(dev);
  auto s = rt.stream_create();
  auto out = dev.alloc<int>(64);
  LaunchOptions opt;
  rt.launch_async(s, Dim3(1), Dim3(64), opt, nullptr, ThrowingKernel{}, out);
  EXPECT_THROW(rt.stream_synchronize(s), StatusError);
  EXPECT_EQ(rt.stream_get_last_error(s), Status::kLaunchFailure);

  // cudaDeviceReset-style recovery: the runtime's reset hook drains every
  // stream and clears its sticky async error alongside the device state.
  dev.reset();
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);
  EXPECT_EQ(rt.stream_get_last_error(s), Status::kSuccess);

  // Post-reset the device address space was released; re-allocate and run.
  auto fresh = dev.alloc<int>(64);
  rt.launch_async(s, Dim3(1), Dim3(64), opt, nullptr, FillKernel{64}, fresh);
  rt.stream_synchronize(s);
  const auto host = fresh.copy_to_host();
  for (int i = 0; i < 64; ++i) ASSERT_EQ(host[i], i * 7 + 1);
}

// ---- ScopedLaunchPool exception safety (satellite) ---------------------------

TEST(ResilStream, ScopedLaunchPoolRestoredWhenLaunchThrows) {
  WorkerPool* const prev = ambient_launch_pool();
  WorkerPool pool(2);
  {
    ScopedLaunchPool scoped(&pool);
    EXPECT_EQ(ambient_launch_pool(), &pool);
    Device dev;
    auto out = dev.alloc<int>(64);
    LaunchOptions opt;
    EXPECT_THROW(launch(dev, Dim3(1), Dim3(64), opt, ThrowingKernel{}, out),
                 StatusError);
    // The throw unwound launch() but not the scope: still our pool.
    EXPECT_EQ(ambient_launch_pool(), &pool);
    {
      ScopedLaunchPool inner(nullptr);
      EXPECT_EQ(ambient_launch_pool(), nullptr);
    }
    EXPECT_EQ(ambient_launch_pool(), &pool);
  }
  EXPECT_EQ(ambient_launch_pool(), prev);
}

}  // namespace
}  // namespace g80
