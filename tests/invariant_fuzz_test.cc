// Invariant fuzzing (ROADMAP item 5): randomized launch configurations
// checked against universal properties of the simulator, rather than
// hand-computed expectations.  Tier-1 runs a small fixed-seed sweep so
// results are reproducible; the long configuration (G80_LONG_FUZZ /
// `ctest -L long`) re-runs the same binary with a larger iteration budget:
//
//   G80_FUZZ_ITERS   iterations per property sweep (default 8)
//   G80_FUZZ_SEED    RNG seed (default 12345)
//
// Properties checked on every random configuration:
//   1. block scheduling never changes results: sequential, pooled, and
//      ambient-pool launches produce bit-identical outputs and identical
//      modeled timing;
//   2. the g80check sanitize pass is sound on clean kernels (no findings),
//      reports only barrier divergence on the early-exit kernel, and is
//      side-effect-free (outputs identical with it on or off);
//   3. an enabled-but-untriggered resilience policy is a no-op, with or
//      without an attempt observer attached: same outputs and launch
//      digest, exactly one attempt, clean history;
//   4. model sanity: occupancy fraction in (0, 1], modeled time positive,
//      achieved DRAM bandwidth never exceeds the 86.4 GB/s hardware peak;
//   5. the trace sample is invisible in results: for every random
//      configuration, {sampled, sample_blocks = 0} x {sequential, pooled 2,
//      pooled 4} all produce bit-identical outputs, and the sample-free
//      LaunchStats themselves are identical whichever scheduler ran them
//      (empty trace/timing, same occupancy footprint);
//   6. trace recording (cudalite/trace_arena.h) is schedule-independent:
//      for every random configuration, {pooled 2, pooled 4} agree with the
//      sequential run on outputs, the full trace summary (including how
//      many streams were regrouped), and modeled timing, bit for bit;
//   7. fiber reuse is invisible: a kernel whose threads t >= k exit before
//      the barrier (so one fiber carries several threads, and the rest each
//      park on one of their own) matches a host-computed reference on every
//      scheduler, the ambient pool included.
//
// The fiber engine is the build's (exec/fiber.h): these properties run on
// the fast switch in a plain x86-64 build and on ucontext under
// scripts/check_sanitize.sh and scripts/check_tsan.sh.
//
// Each configuration draws one of three kernels: a barrier-free stream, a
// block-wide reverse through shared memory, and that reverse over a prefix
// of the block with the other threads exiting early.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "resil/resilience.h"
#include "trace_digest.h"

namespace g80 {
namespace {

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoi(v);
}

int fuzz_iters() { return std::max(1, env_int("G80_FUZZ_ITERS", 8)); }
unsigned fuzz_seed() {
  return static_cast<unsigned>(env_int("G80_FUZZ_SEED", 12345));
}

// Streaming kernel, no synchronization: every thread transforms one element.
struct MadStreamKernel {
  int n = 0;
  float scale = 1.0f;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) {
      float v = In.ld(i);
      v = ctx.mad(v, scale, 1.0f);
      Out.st(i, v);
    }
  }
};

// Cooperative kernel: block-wide reverse through shared memory (barrier +
// shared stores, so the sanitize pass has real work to validate).
struct ReverseKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<float>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    S.st(t, In.ld(base + t));
    ctx.sync();
    Out.st(base + t, S.ld(ctx.block_dim().x - 1 - t));
  }
};

// Early-exit kernel: threads t >= k negate their element and return before
// the barrier; the rest reverse [0, k) of their block through shared memory.
struct EarlyExitReverseKernel {
  int k = 1;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<float>(ctx.block_dim().x);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    if (ctx.branch(t >= k)) {
      Out.st(base + t, -In.ld(base + t));
      return;
    }
    S.st(t, In.ld(base + t));
    ctx.sync();
    Out.st(base + t, S.ld(k - 1 - t));
  }
};

enum class FuzzKernel { kMad, kReverse, kEarlyExit };

// One random launch configuration.
struct FuzzConfig {
  int blocks = 1;
  int threads = 32;
  int sample_blocks = 1;
  int regs = 10;
  FuzzKernel kernel = FuzzKernel::kMad;
  float scale = 1.0f;  // MadStreamKernel
  int keep = 1;        // EarlyExitReverseKernel's k, in [1, threads)

  int n() const { return blocks * threads; }
  std::string str() const {
    static const char* const kNames[] = {"mad", "reverse", "early_exit"};
    return "blocks=" + std::to_string(blocks) +
           " threads=" + std::to_string(threads) +
           " sample_blocks=" + std::to_string(sample_blocks) +
           " regs=" + std::to_string(regs) + " kernel=" +
           kNames[static_cast<int>(kernel)] +
           (kernel == FuzzKernel::kEarlyExit ? " k=" + std::to_string(keep)
                                             : "");
  }
};

FuzzConfig random_config(std::mt19937& rng) {
  static const int kThreads[] = {32, 64, 128, 256};
  FuzzConfig c;
  c.blocks = std::uniform_int_distribution<int>(1, 8)(rng);
  c.threads = kThreads[std::uniform_int_distribution<int>(0, 3)(rng)];
  c.sample_blocks = std::uniform_int_distribution<int>(1, 4)(rng);
  c.regs = std::uniform_int_distribution<int>(8, 16)(rng);
  c.kernel = static_cast<FuzzKernel>(
      std::uniform_int_distribution<int>(0, 2)(rng));
  c.scale =
      0.25f * static_cast<float>(std::uniform_int_distribution<int>(1, 8)(rng));
  c.keep = std::uniform_int_distribution<int>(1, c.threads - 1)(rng);
  return c;
}

std::vector<float> random_input(std::mt19937& rng, int n) {
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

LaunchOptions base_options(const FuzzConfig& c) {
  LaunchOptions opt;
  opt.regs_per_thread = c.regs;
  opt.sample_blocks = c.sample_blocks;
  return opt;
}

// Runs `c` with the given options on a fresh device; returns (output, stats).
std::pair<std::vector<float>, LaunchStats> run_config(
    const FuzzConfig& c, const std::vector<float>& input,
    const LaunchOptions& opt) {
  Device dev;
  auto in = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  auto out = dev.alloc<float>(static_cast<std::size_t>(c.n()));
  in.copy_from_host(input);
  const Dim3 grid(static_cast<unsigned>(c.blocks));
  const Dim3 block(static_cast<unsigned>(c.threads));
  LaunchStats stats;
  switch (c.kernel) {
    case FuzzKernel::kMad:
      stats = launch(dev, grid, block, opt, MadStreamKernel{c.n(), c.scale},
                     in, out);
      break;
    case FuzzKernel::kReverse:
      stats = launch(dev, grid, block, opt, ReverseKernel{}, in, out);
      break;
    case FuzzKernel::kEarlyExit:
      stats = launch(dev, grid, block, opt, EarlyExitReverseKernel{c.keep},
                     in, out);
      break;
  }
  return {out.copy_to_host(), stats};
}

// What EarlyExitReverseKernel writes, computed on the host.
std::vector<float> early_exit_reference(const FuzzConfig& c,
                                        const std::vector<float>& input) {
  std::vector<float> out(input.size());
  for (int b = 0; b < c.blocks; ++b) {
    const int base = b * c.threads;
    for (int t = 0; t < c.threads; ++t)
      out[base + t] =
          t >= c.keep ? -input[base + t] : input[base + c.keep - 1 - t];
  }
  return out;
}

TEST(InvariantFuzz, BlockSchedulingNeverChangesResults) {
  std::mt19937 rng(fuzz_seed());
  WorkerPool pool(4);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [seq_out, seq_stats] = run_config(c, input, base_options(c));

    LaunchOptions pooled = base_options(c);
    pooled.pool = &pool;
    const auto [pool_out, pool_stats] = run_config(c, input, pooled);

    ScopedLaunchPool ambient(&pool);
    const auto [amb_out, amb_stats] = run_config(c, input, base_options(c));

    EXPECT_EQ(seq_out, pool_out) << c.str();
    EXPECT_EQ(seq_out, amb_out) << c.str();
    EXPECT_DOUBLE_EQ(seq_stats.timing.seconds, pool_stats.timing.seconds)
        << c.str();
    EXPECT_DOUBLE_EQ(seq_stats.trace.total.lane_flops,
                     pool_stats.trace.total.lane_flops)
        << c.str();
    EXPECT_EQ(seq_stats.smem_per_block, pool_stats.smem_per_block) << c.str();
  }
}

TEST(InvariantFuzz, SanitizerSoundAndSideEffectFreeOnCleanKernels) {
  std::mt19937 rng(fuzz_seed() + 1);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [plain_out, plain_stats] = run_config(c, input, base_options(c));

    LaunchOptions sanitized = base_options(c);
    sanitized.sanitize.enabled = true;
    sanitized.sanitize.abort_on_error = false;
    const auto [san_out, san_stats] = run_config(c, input, sanitized);

    if (c.kernel == FuzzKernel::kEarlyExit) {
      // Threads exiting while others wait at __syncthreads is the one
      // thing g80check reports about this kernel.
      EXPECT_FALSE(san_stats.sanitizer.clean()) << c.str();
      for (const auto& f : san_stats.sanitizer.findings)
        EXPECT_EQ(f.status, Status::kBarrierDivergence)
            << c.str() << ": " << f.message;
    } else {
      EXPECT_TRUE(san_stats.sanitizer.clean())
          << c.str() << ": " << san_stats.sanitizer.summary();
    }
    EXPECT_EQ(plain_out, san_out) << c.str();
  }
}

TEST(InvariantFuzz, UntriggeredResiliencePolicyIsNoOp) {
  std::mt19937 rng(fuzz_seed() + 2);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    const auto [plain_out, plain_stats] = run_config(c, input, base_options(c));
    const std::uint64_t plain_digest =
        launch_digest(kSpec, plain_stats, {});

    AttemptObserver observer;  // every callback a no-op
    AttemptObserver* const observers[] = {nullptr, &observer};
    for (AttemptObserver* attempts : observers) {
      const std::string what =
          c.str() + (attempts != nullptr ? " observed" : "");
      LaunchOptions resilient = base_options(c);
      resilient.resilience.enabled = true;
      resilient.resilience.wall_timeout_s = 60.0;  // never fires
      resilient.attempts = attempts;
      const auto [res_out, res_stats] = run_config(c, input, resilient);

      EXPECT_EQ(plain_out, res_out) << what;
      EXPECT_EQ(launch_digest(kSpec, res_stats, {}), plain_digest) << what;
      EXPECT_EQ(res_stats.resilience.attempts, 1) << what;
      EXPECT_FALSE(res_stats.resilience.recovered) << what;
      EXPECT_FALSE(res_stats.resilience.timed_out) << what;
      ASSERT_EQ(res_stats.resilience.history.size(), 1u) << what;
      EXPECT_EQ(res_stats.resilience.history[0].status, Status::kSuccess)
          << what;
    }
  }
}

TEST(InvariantFuzz, NoSampleLaunchInvisibleAcrossSchedulers) {
  std::mt19937 rng(fuzz_seed() + 4);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    // Traced sequential run is the reference.
    const auto [ref_out, ref_stats] = run_config(c, input, base_options(c));

    std::vector<LaunchStats> untraced_stats;
    for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool2,
                             &pool4}) {
      LaunchOptions untraced = base_options(c);
      untraced.sample_blocks = 0;
      untraced.pool = pool;
      const auto [out, stats] = run_config(c, input, untraced);
      EXPECT_EQ(ref_out, out)
          << c.str() << " pool=" << (pool ? pool->width() : 1);
      untraced_stats.push_back(stats);
    }
    // Every sample-free run reports the same stats, whichever scheduler
    // produced it: no trace, no modeled timing, but the same
    // occupancy/footprint numbers the traced run derived.
    for (const auto& s : untraced_stats) {
      EXPECT_EQ(s.trace.num_blocks, 0) << c.str();
      EXPECT_EQ(s.timing.seconds, 0.0) << c.str();
      EXPECT_EQ(s.smem_per_block, ref_stats.smem_per_block) << c.str();
      EXPECT_EQ(s.occupancy.blocks_per_sm, ref_stats.occupancy.blocks_per_sm)
          << c.str();
      EXPECT_EQ(s.occupancy.limiter, ref_stats.occupancy.limiter) << c.str();
    }
  }
}

TEST(InvariantFuzz, TraceRecordingInvisibleAcrossSchedulers) {
  std::mt19937 rng(fuzz_seed() + 5);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());

    // Sequential run is the reference.
    const auto [ref_out, ref_stats] = run_config(c, input, base_options(c));

    for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool2,
                             &pool4}) {
      LaunchOptions opt = base_options(c);
      opt.pool = pool;
      const auto [out, stats] = run_config(c, input, opt);
      const std::string label =
          c.str() + " pool=" + std::to_string(pool ? pool->width() : 1);
      EXPECT_EQ(ref_out, out) << label;
      // The entire trace summary — every warp counter, DRAM byte, and
      // per-site attribution row — must match the sequential run.
      EXPECT_TRUE(ref_stats.trace == stats.trace) << label;
      EXPECT_EQ(ref_stats.trace.regrouped_streams,
                stats.trace.regrouped_streams)
          << label;
      EXPECT_EQ(ref_stats.timing.seconds, stats.timing.seconds) << label;
      EXPECT_EQ(ref_stats.timing.kernel_cycles, stats.timing.kernel_cycles)
          << label;
    }
  }
}

TEST(InvariantFuzz, EarlyExitKernelMatchesHostReference) {
  std::mt19937 rng(fuzz_seed() + 6);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  for (int it = 0; it < fuzz_iters(); ++it) {
    auto c = random_config(rng);
    c.kernel = FuzzKernel::kEarlyExit;
    const auto input = random_input(rng, c.n());
    const auto expected = early_exit_reference(c, input);

    for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool2,
                             &pool4}) {
      LaunchOptions opt = base_options(c);
      opt.pool = pool;
      EXPECT_EQ(run_config(c, input, opt).first, expected)
          << c.str() << " pool=" << (pool ? pool->width() : 1);
    }
    ScopedLaunchPool ambient(&pool4);
    EXPECT_EQ(run_config(c, input, base_options(c)).first, expected)
        << c.str() << " ambient pool";
  }
}

TEST(InvariantFuzz, ModelStaysWithinHardwareEnvelope) {
  std::mt19937 rng(fuzz_seed() + 3);
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  for (int it = 0; it < fuzz_iters(); ++it) {
    const auto c = random_config(rng);
    const auto input = random_input(rng, c.n());
    const auto [out, stats] = run_config(c, input, base_options(c));

    const double occ = stats.occupancy.fraction(spec);
    EXPECT_GT(occ, 0.0) << c.str();
    EXPECT_LE(occ, 1.0) << c.str();
    EXPECT_GT(stats.timing.seconds, 0.0) << c.str();
    EXPECT_LE(stats.timing.dram_gbs, spec.dram_bandwidth_gbs * (1 + 1e-9))
        << c.str();
    EXPECT_LE(stats.occupancy.active_warps_per_sm, spec.max_warps_per_sm())
        << c.str();
  }
}

}  // namespace
}  // namespace g80
