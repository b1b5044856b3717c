// The four workloads.  Each times its set-up `setup_reps` times (median ->
// setup_s), runs its unit operation over the measuring window, checks every
// output, and reports op_p50_s / ops_per_s plus its own named figures.
#include <algorithm>
#include <memory>

#include "apps/matmul/matmul.h"
#include "common/stats.h"
#include "common/str.h"
#include "parts.h"

namespace g80::bench {

namespace {

// Modeled outputs pinned at the commit that defined the benchmark.  They do
// not depend on the seed (the timing model sees addresses, not values); a
// change that only makes the host faster must leave them bit-identical.
constexpr double kSgemm512ModeledSeconds = 0.0028799051851851852;
constexpr double kSuiteModeledGpuSeconds = 0.031270044878199364;
constexpr int kSuiteLaunches = 26;
constexpr std::array<double, 4> kWalkGflops = {
    9.0940941461382874, 44.941289828443537, 93.657700037216216,
    90.576315000179946};

void add_common(double setup,
                const std::vector<double>& ops, double wall, Outcome& out) {
  out.add("setup_s", setup, "s");
  out.add("op_p50_s", median(ops), "s");
  out.add("ops_per_s", static_cast<double>(ops.size()) / wall, "1/s");
  out.op_s = ops;
}

}  // namespace

// §4 SGEMM at n=512 through launch() with default options: 4 sampled
// blocks, functional pass on, one worker.
void run_matmul512(const RunConfig& rc, Tracer* tr, Outcome& out) {
  constexpr int n = 512;
  std::unique_ptr<Device> dev;
  std::unique_ptr<Sgemm> m;
  std::vector<float> ref;
  const double setup = setup_seconds(
      rc,
      [&] {
        m.reset();  // buffers refer to their device
        dev.reset();
      },
      [&] {
        dev = std::make_unique<Device>();
        m = std::make_unique<Sgemm>(*dev, n, rc.seed);
      });
  // The CPU reference is the benchmark's oracle, not set-up of the system.
  apps::matmul_cpu(n, m->a_host, m->b_host, ref);
  const LaunchOptions opt = sgemm_options();
  double wall = 0;
  const auto ops = run_window(rc, [&] {
    m->c.fill(0.0f);
    const double t0 = now_s();
    const LaunchStats st = sgemm_launch(*dev, *m, opt, tr);
    const double dt = now_s() - t0;
    const std::vector<float> c = m->c.copy_to_host();
    double err = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
      err = std::max(err, rel_err(c[i], ref[i], 1e-3));
    out.check(err <= 2e-4 && st.timing.seconds == kSgemm512ModeledSeconds,
              cat("matmul512: max rel err ", err, ", modeled ",
                  full(st.timing.seconds), " s"));
    return dt;
  }, wall);
  add_common(setup, ops, wall, out);
  out.add_named("launch_p50_s", median(ops), "s");
  out.add_named("launches", static_cast<double>(ops.size()), "count");
}

// The §4 four-version walk at 4096^2 (trace-only, g80prof + g80scope
// attached, on a WorkerPool of min(4, nproc)), then one g80check-sanitized
// 128^2 tiled-unrolled launch with functional=false.  The sanitized launch
// is 128^2 (64 blocks, ~0.16 s) rather than 512^2 (1024 blocks, ~5.5 s):
// the sanitize pass is the op's most host-sensitive part, and a short op
// lets a run hold ~30 of them, so the run's median is steady.  One untimed
// warm-up op runs first.
void run_checked(const RunConfig& rc, Tracer* tr, Outcome& out) {
  constexpr int kSanitizeN = 128;
  std::unique_ptr<Device> dev;
  std::unique_ptr<WalkBuffers> bufs;
  std::unique_ptr<Sgemm> m;
  std::unique_ptr<WorkerPool> pool;
  const double setup = setup_seconds(
      rc,
      [&] {
        bufs.reset();  // buffers refer to their device
        m.reset();
        pool.reset();
        dev.reset();
      },
      [&] {
        dev = std::make_unique<Device>();
        bufs = std::make_unique<WalkBuffers>(*dev);
        m = std::make_unique<Sgemm>(*dev, kSanitizeN, rc.seed);
        pool = std::make_unique<WorkerPool>(pool_width());
      });
  std::optional<Walk> first;
  double err_pct = 0;
  double wall = 0;
  std::vector<double> walk_s, sanitize_s;
  const auto check_op = [&] {
    const double t0 = now_s();
    Walk w;
    LaunchStats san;
    double t1 = 0;
    {
      Tracer::Scope s(tr, "bench", "check (walk + sanitize)");
      w = run_walk(*dev, *bufs, pool.get(), /*observers=*/true, tr);
      t1 = now_s();
      san = sanitize_launch(*dev, *m, LaunchOptions{}.sample_blocks, tr);
    }
    const double dt = now_s() - t0;
    walk_s.push_back(t1 - t0);
    sanitize_s.push_back(dt - (t1 - t0));
    if (!first) first = w;
    bool same = true;
    for (std::size_t i = 0; i < kWalkVersions.size(); ++i) {
      same = same && w.stats[i].trace == first->stats[i].trace &&
             w.counters[i] == first->counters[i] &&
             w.stats[i].timing.gflops == kWalkGflops[i];
    }
    out.check(same, cat("checked: walk counters, trace summary or GFLOPS "
                        "moved; GFLOPS ", full(w.stats[0].timing.gflops), " ",
                        full(w.stats[1].timing.gflops), " ",
                        full(w.stats[2].timing.gflops), " ",
                        full(w.stats[3].timing.gflops)));
    out.check(san.sanitizer.clean() &&
                  san.sanitizer.blocks_checked == m->blocks(),
              "checked: sanitizer " + san.sanitizer.summary());
    err_pct = model_err_pct(w);
    return dt;
  };
  check_op();  // warm-up
  walk_s.clear();
  sanitize_s.clear();
  const auto ops = run_window(rc, check_op, wall);
  add_common(setup, ops, wall, out);
  out.add_named("check_p50_s", median(ops), "s");
  out.add_named("walk_p50_s", median(walk_s), "s");
  out.add_named("sanitize_p50_s", median(sanitize_s), "s");
  out.add_named("model_err_pct", err_pct, "%");
  out.add_named("checks", static_cast<double>(ops.size()), "count");
}

// One sequential pass of the 13-app suite at full scale.  Set-up is a
// quick-scale pass, which also warms every app's code and allocations.
void run_suite13(const RunConfig& rc, Tracer* tr, Outcome& out) {
  const double setup = setup_seconds(rc, [] {}, [&] {
    run_suite_pass(/*full_scale=*/false, nullptr, out);
  });
  double wall = 0;
  const auto ops = run_window(rc, [&] {
    const SuitePass p = run_suite_pass(/*full_scale=*/true, tr, out);
    out.check(p.validated == 13 && p.launches == kSuiteLaunches &&
                  p.modeled_gpu_s == kSuiteModeledGpuSeconds,
              cat("suite13: ", p.validated, "/13 validated, ", p.launches,
                  " launches, modeled ", full(p.modeled_gpu_s), " s"));
    return p.wall;
  }, wall);
  add_common(setup, ops, wall, out);
  out.add_named("suite_p50_s", median(ops), "s");
  out.add_named("passes", static_cast<double>(ops.size()), "count");
}

// An in-process g80served under a closed-loop hit/miss traffic mix.
void run_serve_mix(const RunConfig& rc, Tracer* tr, Outcome& out) {
  std::unique_ptr<ServeRig> rig;
  const double setup = setup_seconds(
      rc, [&] { rig.reset(); },
      [&] { rig = std::make_unique<ServeRig>(rc.socket, rc.seed); });
  out.check(rig->warm_ok(), "serve_mix: warm set did not simulate");
  const MixResult mix = run_mix_round(*rig, rc.seed, rc.seconds, tr, out).mix;

  std::vector<double> all = mix.hit_s;
  all.insert(all.end(), mix.miss_s.begin(), mix.miss_s.end());
  const double jobs_per_s = static_cast<double>(all.size()) / mix.wall;
  out.add("setup_s", setup, "s");
  out.add("op_p50_s", median(all), "s");
  out.add("ops_per_s", jobs_per_s, "1/s");
  out.op_s = all;
  out.add_named("serve_hit_p50_ms", 1e3 * percentile(mix.hit_s, 0.50), "ms");
  out.add_named("serve_hit_p99_ms", 1e3 * percentile(mix.hit_s, 0.99), "ms");
  out.add_named("serve_miss_p50_ms", 1e3 * percentile(mix.miss_s, 0.50), "ms");
  out.add_named("serve_miss_p90_ms", 1e3 * percentile(mix.miss_s, 0.90), "ms");
  out.add_named("serve_jobs_per_s", jobs_per_s, "1/s");
  out.add_named("hits", static_cast<double>(mix.hit_s.size()), "count");
  out.add_named("misses", static_cast<double>(mix.miss_s.size()), "count");
}

}  // namespace g80::bench
