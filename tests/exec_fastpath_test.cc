// Execution-engine throughput levers: the block scheduling pass and its
// barrier handoff chain, sample-free (sample_blocks = 0) launches, and
// work-stealing dispatch.  The fiber switch engine is the build's (see
// exec/fiber.h); the same tests run on the ucontext engine under
// scripts/check_sanitize.sh and scripts/check_tsan.sh.
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
#include "exec/worker_pool.h"
#include "resil/resilience.h"

namespace g80 {
namespace {

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
  for (int threads : {1, 31, 32, 33, 96, 256}) {
    BlockRunner plain(threads, 16 * 1024);
    std::vector<int> plain_out;
    run_divergent_block(plain, threads, plain_out, nullptr);
    const int plain_barriers = plain.barriers_executed();

    BlockRunner observed(threads, 16 * 1024);
    std::vector<int> observed_out;
    NoopObserver obs;
    run_divergent_block(observed, threads, observed_out, &obs);

    EXPECT_EQ(plain_out, observed_out) << threads << " threads";
    EXPECT_EQ(plain_barriers, observed.barriers_executed())
        << threads << " threads";
    EXPECT_EQ(obs.releases_, observed.barriers_executed());
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
  const int threads = 8;
  BlockRunner r(threads, 16 * 1024);
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

TEST(HandoffChain, LowestThrowingThreadOfThePassWins) {
  BlockRunner r(16, 16 * 1024);
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

TEST(HandoffChain, MixedExitsGiveTheExpectedSnapshots) {
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
  // Between barriers the threads run in index order, so each thread reads
  // its successor's value from before this pass.
  std::vector<int> expected_out(threads, 0);
  for (int e = 0; e < 4; ++e) {
    std::vector<int> row{e, -1};
    for (int t = 0; t < threads; ++t)
      if (trips(t) > e) row.insert(row.end(), {t, 100 + e});
    row.push_back(-2);
    for (int t = 0; t < threads; ++t)
      if (trips(t) == e) row.push_back(t);
    expected.push_back(row);
    for (int t = 0; t < threads; ++t)
      if (trips(t) > e)
        expected_out[t] =
            expected_out[t] * 3 + expected_out[(t + 1) % threads] + e;
  }

  BlockRunner r(threads, 16 * 1024);
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
  EXPECT_EQ(out, expected_out);
}

TEST(HandoffChain, SyncForeverBlockCancelsThroughWatchdog) {
  BlockRunner r(64, 16 * 1024);
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
  // traces one block when something needs a trace and none otherwise.  An
  // attempt observer needs none, so a traced serve request degrades exactly
  // as an untraced one does.
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
  AttemptObserver attempts;  // every callback a no-op
  rows.push_back({"attempt observer attached", level_two(), 0});
  rows.back().opt.attempts = &attempts;
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
      for (int k = 0; k < 2000; ++k) sink = sink + k;
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
