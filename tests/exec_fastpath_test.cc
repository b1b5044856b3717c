// Execution-engine throughput levers: the fast fiber switch engine, the
// block scheduling pass and its barrier handoff chain, sample-free
// (sample_blocks = 0) launches, and work-stealing dispatch.
//
// The contract under test everywhere: none of these levers may change
// observable results.  Outputs are bit-identical to the traced sequential
// path, traced stats are bit-identical across schedulers, and a launch
// traces exactly the blocks its sample count, fallback level and modeled
// watchdog call for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/matmul/matmul.h"
#include "apps/suite.h"
#include "common/error.h"
#include "core/app.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"
#include "exec/worker_pool.h"
#include "resil/resilience.h"

namespace g80 {
namespace {

// ---- Fiber engines behave identically -----------------------------------------

std::vector<Fiber::Backend> backends_under_test() {
  std::vector<Fiber::Backend> b{Fiber::Backend::kUcontext};
  if (Fiber::fast_backend_supported()) b.push_back(Fiber::Backend::kFast);
  return b;
}

TEST(FiberBackend, YieldOrderAndReuseMatchAcrossEngines) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber f(64 * 1024, backend);
    std::vector<int> order;
    f.start([&] {
      order.push_back(1);
      f.yield();
      order.push_back(3);
    });
    order.push_back(0);
    EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
    order.push_back(2);
    EXPECT_EQ(f.resume(), Fiber::State::kDone);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

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
}

TEST(FiberBackend, ExceptionsRethrowOnSchedulerStack) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber f(64 * 1024, backend);
    f.start([&] {
      f.yield();
      throw std::runtime_error("late failure");
    });
    EXPECT_EQ(f.resume(), Fiber::State::kSuspended);
    EXPECT_THROW(f.resume(), std::runtime_error);
    EXPECT_EQ(f.state(), Fiber::State::kDone);
  }
}

TEST(FiberBackend, HandoffReturnsThroughTheChain) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber a(64 * 1024, backend), b(64 * 1024, backend);
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
}

TEST(FiberBackend, HandoffRethrowsFromTheFiberThatGaveControlBack) {
  for (Fiber::Backend backend : backends_under_test()) {
    Fiber a(64 * 1024, backend), b(64 * 1024, backend);
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
}

TEST(FiberBackend, UnsupportedFastRequestDegradesToUcontext) {
  if (Fiber::fast_backend_supported()) {
    Fiber f(64 * 1024, Fiber::Backend::kFast);
    EXPECT_EQ(f.backend(), Fiber::Backend::kFast);
  } else {
    Fiber f(64 * 1024, Fiber::Backend::kFast);
    EXPECT_EQ(f.backend(), Fiber::Backend::kUcontext);
  }
}

// ---- Block scheduling sweep ----------------------------------------------------

// Observer that changes no semantics — the control for observed-vs-unobserved
// comparisons of the same sweep.
class NoopObserver : public BarrierObserver {
 public:
  void on_barrier_release(const BarrierSnapshot& snap) override {
    releases_ += 1;
    waiters_ += static_cast<int>(snap.waiting.size());
  }
  int releases_ = 0;
  int waiters_ = 0;
};

// Each thread loops `trips(tid)` times, accumulating a value and hitting the
// barrier once per trip; threads therefore exit at different generations,
// so later sweeps skip exited threads inside partially live warps.
void run_divergent_block(BlockRunner& r, int threads,
                         std::vector<int>& out, BarrierObserver* obs) {
  out.assign(threads, 0);
  r.set_barrier_observer(obs);
  r.run(threads, [&](int tid) {
    const int trips = 1 + (tid % 5);
    for (int k = 0; k < trips; ++k) {
      out[tid] += tid + k;
      r.sync(tid);
    }
  });
  r.set_barrier_observer(nullptr);
}

TEST(BlockSweep, DivergentExitMatchesObservedRun) {
  for (Fiber::Backend backend : backends_under_test()) {
    for (int threads : {1, 31, 32, 33, 96, 256}) {
      BlockRunner plain(threads, 16 * 1024, backend);
      std::vector<int> plain_out;
      run_divergent_block(plain, threads, plain_out, nullptr);
      const int plain_barriers = plain.barriers_executed();

      BlockRunner observed(threads, 16 * 1024, backend);
      std::vector<int> observed_out;
      NoopObserver obs;
      run_divergent_block(observed, threads, observed_out, &obs);

      EXPECT_EQ(plain_out, observed_out) << threads << " threads";
      EXPECT_EQ(plain_barriers, observed.barriers_executed())
          << threads << " threads";
      EXPECT_EQ(obs.releases_, observed.barriers_executed());
    }
  }
}

TEST(BlockSweep, FullyConvergedWarpsKeepBarrierSemantics) {
  const int threads = 64;
  BlockRunner r(threads, 16 * 1024);
  // Classic two-phase shared pattern: phase 2 must see every phase-1 write.
  std::vector<int> seen(threads, 0);
  std::vector<int> phase1(threads, 0);
  r.run(threads, [&](int tid) {
    phase1[tid] = tid + 1;
    r.sync(tid);
    seen[tid] = phase1[(tid + 1) % threads];
  });
  EXPECT_EQ(r.barriers_executed(), 1);
  for (int t = 0; t < threads; ++t)
    EXPECT_EQ(seen[t], (t + 1) % threads + 1) << t;
}

// ---- Barrier handoff chain -----------------------------------------------------
//
// A thread parking at a barrier switches straight into the next live thread;
// only exits, exceptions and the pass's last park return to the scheduler.

TEST(HandoffChain, ThrowAfterHandoffStopsThePassAndRunnerRecovers) {
  for (Fiber::Backend backend : backends_under_test()) {
    const int threads = 8;
    BlockRunner r(threads, 16 * 1024, backend);
    std::vector<int> before(threads, 0), after(threads, 0);
    // Thread 3 throws in the second pass, where threads 1..7 are entered by
    // the handoff from their predecessor rather than by the scheduler.
    EXPECT_THROW(r.run(threads,
                       [&](int tid) {
                         ++before[tid];
                         r.sync(tid);
                         if (tid == 3) throw std::runtime_error("thread 3");
                         ++after[tid];
                         r.sync(tid);
                       }),
                 std::runtime_error);
    EXPECT_EQ(before, std::vector<int>(threads, 1));
    // Threads below the thrower ran their second phase; none after it did.
    EXPECT_EQ(after, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0}));

    // The same runner re-arms every abandoned fiber for a clean block.
    std::vector<int> slot(threads, -1), seen(threads, -1);
    r.run(threads, [&](int tid) {
      slot[tid] = tid * 10;
      r.sync(tid);
      seen[tid] = slot[(tid + 1) % threads];
    });
    EXPECT_EQ(r.barriers_executed(), 1);
    for (int t = 0; t < threads; ++t)
      EXPECT_EQ(seen[t], ((t + 1) % threads) * 10) << t;
  }
}

TEST(HandoffChain, LowestThrowingThreadOfThePassWins) {
  for (Fiber::Backend backend : backends_under_test()) {
    BlockRunner r(16, 16 * 1024, backend);
    try {
      // Both throwers are entered by handoff in the second pass.
      r.run(16, [&](int tid) {
        r.sync(tid);
        if (tid == 5 || tid == 9) throw std::runtime_error(std::to_string(tid));
        r.sync(tid);
      });
      FAIL() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
  }
}

// Records every barrier release in full.
class RecordingObserver : public BarrierObserver {
 public:
  void on_barrier_release(const BarrierSnapshot& snap) override {
    std::vector<int> row{snap.epoch, -1};
    for (const auto& w : snap.waiting) {
      row.push_back(w.tid);
      row.push_back(static_cast<int>(w.at.site));
    }
    row.push_back(-2);
    row.insert(row.end(), snap.exited.begin(), snap.exited.end());
    rows.push_back(row);
  }
  std::vector<std::vector<int>> rows;
};

TEST(HandoffChain, MixedExitsGiveTheSameSnapshotsOnBothEngines) {
  const int threads = 40;
  // Thread 0 exits before any barrier, the last thread after one; the rest
  // exit after 0..4 barriers, so handoffs skip exited threads at every
  // position of the pass.
  const auto trips = [&](int tid) {
    if (tid == 0) return 0;
    if (tid == threads - 1) return 1;
    return (tid * 7) % 5;
  };
  // Release e parks every thread with more than e trips, each at the site of
  // its (e+1)-th barrier, and reports the threads that ran exactly e.
  std::vector<std::vector<int>> expected;
  for (int e = 0; e < 4; ++e) {
    std::vector<int> row{e, -1};
    for (int t = 0; t < threads; ++t)
      if (trips(t) > e) row.insert(row.end(), {t, 100 + e});
    row.push_back(-2);
    for (int t = 0; t < threads; ++t)
      if (trips(t) == e) row.push_back(t);
    expected.push_back(row);
  }

  std::vector<std::vector<std::vector<int>>> snapshots;
  std::vector<std::vector<int>> outputs;
  for (Fiber::Backend backend : backends_under_test()) {
    BlockRunner r(threads, 16 * 1024, backend);
    RecordingObserver obs;
    std::vector<int> out(threads, 0);
    r.set_barrier_observer(&obs);
    r.run(threads, [&](int tid) {
      for (int k = 0; k < trips(tid); ++k) {
        out[tid] = out[tid] * 3 + out[(tid + 1) % threads] + k;
        r.sync(tid, SyncPoint{static_cast<std::uint32_t>(100 + k)});
      }
    });
    EXPECT_EQ(r.barriers_executed(), 4);
    EXPECT_EQ(obs.rows, expected);
    snapshots.push_back(obs.rows);
    outputs.push_back(out);
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(snapshots[i], snapshots[0]);
    EXPECT_EQ(outputs[i], outputs[0]);
  }
}

TEST(HandoffChain, SyncForeverBlockCancelsThroughWatchdog) {
  for (Fiber::Backend backend : backends_under_test()) {
    BlockRunner r(64, 16 * 1024, backend);
    CancelToken token;
    r.set_cancel_token(&token);
    try {
      Watchdog dog(&token, 0.05, "wedged block");
      r.run(64, [&](int tid) {
        for (;;) r.sync(tid);
      });
      FAIL() << "a block that synchronizes forever returned";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status(), Status::kTimeout);
    }
    EXPECT_GT(r.barriers_executed(), 0);
    // Detached from the fired token, the runner runs a clean block.
    r.set_cancel_token(nullptr);
    std::vector<int> hits(64, 0);
    r.run(64, [&](int tid) {
      r.sync(tid);
      ++hits[tid];
    });
    EXPECT_EQ(hits, std::vector<int>(64, 1));
  }
}

// ---- Sample-free launches (sample_blocks = 0) ----------------------------------

struct MatmulSetup {
  Device dev;
  DeviceBuffer<float> a, b, c;
  int n, tile;
  apps::MatmulTiledKernel kernel;

  explicit MatmulSetup(const apps::MatmulWorkload& wl, int n_, int tile_)
      : a(dev.alloc<float>(wl.a.size())),
        b(dev.alloc<float>(wl.b.size())),
        c(dev.alloc<float>(static_cast<std::size_t>(n_) * n_)),
        n(n_),
        tile(tile_),
        kernel{n_, tile_, /*unrolled=*/true} {
    a.copy_from_host(wl.a);
    b.copy_from_host(wl.b);
  }

  LaunchStats go(const LaunchOptions& opt) {
    return launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                  kernel, a, b, c);
  }
};

TEST(LaunchNoSamples, BitIdenticalOutputsAndEmptyStats) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 7);

  MatmulSetup traced(wl, n, tile);
  LaunchOptions topt;
  topt.regs_per_thread = 9;
  const LaunchStats ts = traced.go(topt);
  const auto ref = traced.c.copy_to_host();
  EXPECT_GT(ts.timing.seconds, 0.0);
  EXPECT_GT(ts.trace.num_blocks, 0);

  for (int workers : {1, 2, 4}) {
    MatmulSetup untraced(wl, n, tile);
    WorkerPool pool(workers);
    LaunchOptions uopt;
    uopt.regs_per_thread = 9;
    uopt.sample_blocks = 0;
    uopt.pool = workers > 1 ? &pool : nullptr;
    const LaunchStats us = untraced.go(uopt);
    const auto out = untraced.c.copy_to_host();
    ASSERT_EQ(out.size(), ref.size()) << workers << " workers";
    EXPECT_EQ(
        std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << workers << " workers";
    // No sampled block means no trace and no modeled timing...
    EXPECT_EQ(us.trace.num_blocks, 0) << workers;
    EXPECT_EQ(us.timing.seconds, 0.0) << workers;
    // ...but occupancy and the shared-memory footprint still come out
    // identical to the traced launch (derived without a trace).
    EXPECT_EQ(us.smem_per_block, ts.smem_per_block) << workers;
    EXPECT_EQ(us.occupancy.blocks_per_sm, ts.occupancy.blocks_per_sm);
    EXPECT_EQ(us.occupancy.limiter, ts.occupancy.limiter);
  }
}

TEST(LaunchNoSamples, ModeledWatchdogStillFires) {
  // An armed modeled watchdog needs a modeled time, so it traces one block
  // even when the caller asked for none.
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 5);
  MatmulSetup m(wl, n, tile);
  LaunchOptions opt;
  opt.sample_blocks = 0;
  opt.resilience.enabled = true;
  opt.resilience.modeled_timeout_s = 1e-12;  // below any real kernel
  opt.resilience.max_retries = 0;
  opt.resilience.allow_fallback = false;
  try {
    m.go(opt);
    FAIL() << "modeled watchdog did not fire with sample_blocks = 0";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kTimeout);
  }
}

TEST(LaunchNoSamples, FallbackLevelTwoTracesOnlyWhatIsNeeded) {
  // Two injected transient failures walk the launch down to level 2, which
  // traces one block when something needs a trace and none otherwise.
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 13);
  const auto level_two = [] {
    LaunchOptions opt;
    opt.resilience.enabled = true;
    opt.resilience.max_retries = 2;
    opt.resilience.inject_transient_failures = 2;
    opt.resilience.backoff_initial_s = 0;
    return opt;
  };
  struct Row {
    const char* name;
    LaunchOptions opt;
    std::size_t sampled_blocks;
  };
  std::vector<Row> rows;
  rows.push_back({"unobserved", level_two(), 0});
  rows.push_back({"sanitize requested", level_two(), 1});
  rows.back().opt.sanitize.enabled = true;
  rows.push_back({"modeled watchdog armed", level_two(), 1});
  rows.back().opt.resilience.modeled_timeout_s = 1e9;  // armed, never fires
  for (const Row& row : rows) {
    MatmulSetup m(wl, n, tile);
    const LaunchStats s = m.go(row.opt);
    EXPECT_EQ(s.resilience.fallback_level, 2) << row.name;
    EXPECT_EQ(s.trace.num_blocks, row.sampled_blocks) << row.name;
    // Level 2 never runs the sanitize pass.
    EXPECT_EQ(s.sanitizer.blocks_checked, 0u) << row.name;
  }
}

// ---- Ambient pool --------------------------------------------------------------

TEST(AmbientPool, SuiteOutputsUnchangedUnderPool) {
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  WorkerPool pool(4);
  for (const auto& app : apps::make_suite()) {
    const std::string name = app->info().name;
    const AppResult seq = app->run(spec, RunScale::kQuick);
    AppResult pooled;
    {
      ScopedLaunchPool scoped_pool(&pool);
      pooled = app->run(spec, RunScale::kQuick);
    }
    // max_rel_err is computed from the GPU outputs against the CPU
    // reference; exact equality means the pool reproduced every output bit
    // of every launch the app made.
    EXPECT_EQ(seq.validated, pooled.validated) << name;
    EXPECT_EQ(seq.max_rel_err, pooled.max_rel_err) << name;
    EXPECT_EQ(seq.launches, pooled.launches) << name;
  }
}

// ---- Work stealing -------------------------------------------------------------

TEST(WorkStealing, SkewedCostsStillRunEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  const std::uint64_t total = 10000;
  std::vector<std::atomic<int>> hits(total);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(total, [&](int slot, std::uint64_t i) {
    // Heavy head: the first shard costs far more than the rest, so the
    // other slots drain and must steal from it to finish.
    if (i < total / 8) {
      volatile std::uint64_t sink = 0;
      for (int k = 0; k < 2000; ++k) sink += k;
    }
    hits[i].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < total; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkStealing, LowestIndexExceptionWinsAcrossShards) {
  WorkerPool pool(4);
  for (int trial = 0; trial < 3; ++trial) {
    try {
      pool.parallel_for(512, [&](int, std::uint64_t i) {
        if (i % 100 == 7) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7");
    }
  }
}

TEST(WorkStealing, TracedStatsDeterministicAcrossRuns) {
  const int n = 64, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 9);
  auto run = [&](WorkerPool* pool) {
    MatmulSetup m(wl, n, tile);
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    opt.sample_blocks = 16;  // trace every block: full merge coverage
    opt.pool = pool;
    return m.go(opt);
  };
  const LaunchStats seq = run(nullptr);
  for (int trial = 0; trial < 3; ++trial) {
    WorkerPool pool(4);
    const LaunchStats par = run(&pool);
    EXPECT_EQ(par.trace.total.ops.counts, seq.trace.total.ops.counts);
    EXPECT_EQ(par.trace.total.lane_flops, seq.trace.total.lane_flops);
    EXPECT_EQ(par.trace.total.global.bytes, seq.trace.total.global.bytes);
    EXPECT_EQ(par.timing.kernel_cycles, seq.timing.kernel_cycles);
    EXPECT_EQ(par.timing.seconds, seq.timing.seconds);
  }
}

}  // namespace
}  // namespace g80
