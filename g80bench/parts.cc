// Shared building blocks (parts.h).
#include "parts.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "apps/matmul/matmul.h"
#include "apps/suite.h"
#include "common/rng.h"
#include "prof/profiler.h"
#include "scope/session.h"

namespace g80::bench {

using apps::MatmulVariant;

const std::array<WalkVersion, 4> kWalkVersions = {{
    {"naive", static_cast<int>(MatmulVariant::kNaive), 10.58},
    {"tiled", static_cast<int>(MatmulVariant::kTiled), 46.49},
    {"tiled_unrolled", static_cast<int>(MatmulVariant::kTiledUnrolled), 91.14},
    {"prefetch", static_cast<int>(MatmulVariant::kPrefetch), 87.10},
}};

WalkBuffers::WalkBuffers(Device& dev)
    : a(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)),
      b(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)),
      c(dev.alloc<float>(static_cast<std::size_t>(kN) * kN)) {}

Walk run_walk(Device& dev, WalkBuffers& bufs, WorkerPool* pool,
              bool observers, Tracer* tr) {
  Walk w;
  std::optional<prof::Profiler> profiler;
  std::optional<scope::Session> session;
  if (observers) {
    profiler.emplace();
    session.emplace();
  }
  ScopedLaunchPool ambient(pool);
  const double t0 = now_s();
  for (std::size_t i = 0; i < kWalkVersions.size(); ++i) {
    const apps::MatmulConfig cfg{
        static_cast<MatmulVariant>(kWalkVersions[i].variant), 16};
    {
      Tracer::Scope s(tr, "cudalite", "launch");
      w.stats[i] = apps::run_matmul(
          dev, cfg, WalkBuffers::kN, bufs.a, bufs.b, bufs.c,
          /*functional=*/false, profiler ? &*profiler : nullptr,
          session ? &*session : nullptr);
    }
    w.counters[i] = prof::derive_counters(dev.spec(), w.stats[i]);
  }
  w.seconds = now_s() - t0;
  return w;
}

double model_err_pct(const Walk& w) {
  double sum = 0;
  for (std::size_t i = 0; i < kWalkVersions.size(); ++i) {
    const double paper = kWalkVersions[i].paper_gflops;
    sum += std::fabs(w.stats[i].timing.gflops - paper) / paper;
  }
  return 100.0 * sum / static_cast<double>(kWalkVersions.size());
}

Sgemm::Sgemm(Device& dev, int n, std::uint64_t seed)
    : n(n),
      a(dev.alloc<float>(static_cast<std::size_t>(n) * n)),
      b(dev.alloc<float>(static_cast<std::size_t>(n) * n)),
      c(dev.alloc<float>(static_cast<std::size_t>(n) * n)) {
  auto gen = apps::MatmulWorkload::generate(n, seed);
  a_host = std::move(gen.a);
  b_host = std::move(gen.b);
  a.copy_from_host(a_host);
  b.copy_from_host(b_host);
}

LaunchOptions sgemm_options() {
  LaunchOptions opt;
  opt.regs_per_thread =
      apps::MatmulConfig{MatmulVariant::kTiledUnrolled, 16}.regs_per_thread();
  return opt;
}

LaunchStats sgemm_launch(Device& dev, Sgemm& m, const LaunchOptions& opt,
                         Tracer* tr) {
  const auto tiles = static_cast<unsigned>(m.n / 16);
  Tracer::Scope s(tr, "cudalite", "launch");
  return launch(dev, Dim3(tiles, tiles), Dim3(16, 16), opt,
                apps::MatmulTiledKernel{m.n, 16, true, false}, m.a, m.b, m.c);
}

LaunchStats sanitize_launch(Device& dev, Sgemm& m, int sample_blocks,
                            Tracer* tr) {
  LaunchOptions opt = sgemm_options();
  opt.functional = false;
  opt.sample_blocks = sample_blocks;
  opt.sanitize.enabled = true;
  opt.sanitize.abort_on_error = false;
  Tracer::Scope s(tr, "sanitizer", "launch (sanitize)");
  return sgemm_launch(dev, m, opt, nullptr);
}

const std::array<const char*, 13> kAppKeys = {
    "matmul", "saxpy", "mri_q", "mri_fhd", "cp",  "tpacf", "rc5",
    "lbm",    "fdtd",  "fem",   "pns",     "rpes", "h264"};

SuitePass run_suite_pass(bool full_scale, Tracer* tr, Outcome& out) {
  SuitePass p;
  const auto suite = apps::make_suite();
  out.check(suite.size() == kAppKeys.size(), "suite has 13 apps");
  const DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  const double t0 = now_s();
  for (std::size_t i = 0; i < suite.size() && i < kAppKeys.size(); ++i) {
    const double a0 = now_s();
    try {
      Tracer::Scope s(tr, "apps", std::string("App::run ") + kAppKeys[i]);
      const AppResult r = suite[i]->run(
          spec, full_scale ? RunScale::kFull : RunScale::kQuick);
      p.launches += r.launches;
      p.modeled_gpu_s += r.gpu_kernel_seconds;
      if (r.validated) ++p.validated;
      out.check(r.validated, std::string(kAppKeys[i]) + " validated");
    } catch (const std::exception& e) {
      out.check(false, std::string(kAppKeys[i]) + " threw: " + e.what());
    }
    p.seconds[i] = now_s() - a0;
  }
  p.wall = now_s() - t0;
  return p;
}

// ---- serve --------------------------------------------------------------

namespace {

const char* const kClasses[] = {"gtx", "ultra", "gts"};
const char* const kVariants[] = {"tiled", "tiled_unrolled", "prefetch",
                                 "regtiled"};

serve::JobRequest saxpy_job(std::int64_t n, std::int64_t seed,
                            const char* cls) {
  serve::JobRequest r;
  r.op = serve::Op::kLaunch;
  r.kernel = "saxpy";
  r.n = n;
  r.seed = seed;
  r.device_class = cls;
  return r;
}

serve::JobRequest matmul_job(const char* variant, std::int64_t seed,
                             const char* cls) {
  serve::JobRequest r;
  r.op = serve::Op::kLaunch;
  r.kernel = "matmul";
  r.n = 96;
  r.tile = 16;
  r.variant = variant;
  r.seed = seed;
  r.device_class = cls;
  return r;
}

// Warm set: 4 saxpy and 8 n=96 matmul jobs spread over the device classes,
// with job seeds drawn from the run seed.
std::vector<serve::JobRequest> make_warm_set(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<serve::JobRequest> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(saxpy_job(32768 + 4096 * i,
                             static_cast<std::int64_t>(rng.next_below(1 << 30)),
                             kClasses[i % 3]));
  for (int i = 0; i < 8; ++i)
    jobs.push_back(
        matmul_job(kVariants[i % 4],
                   static_cast<std::int64_t>(rng.next_below(1 << 30)),
                   kClasses[(i + 1) % 3]));
  return jobs;
}

bool is_hit(const serve::Response& r) {
  return r.source == "cache_mem" || r.source == "cache_disk";
}

}  // namespace

ServeRig::ServeRig(const std::string& socket_path, std::uint64_t seed)
    : socket_(socket_path), warm_(make_warm_set(seed)) {
  serve::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.obs.log_level = obs::LogLevel::kWarn;
  server_ = std::make_unique<serve::Server>(cfg);
  server_->start();
  serve::Client c(socket_, "g80bench-warmer");
  for (const auto& job : warm_) {
    const serve::Response r = c.call(job);
    warm_ok_ = warm_ok_ && r.ok() && r.source == "sim";
    reference_.push_back(r.result_json);
  }
}

ServeRig::~ServeRig() { server_->shutdown(); }

Scrape scrape(serve::Client& c, Tracer* tr) {
  Scrape s;
  serve::JobRequest req;
  req.op = serve::Op::kMetrics;
  serve::Response r;
  {
    Tracer::Scope span(tr, "obs", "metrics op");
    r = c.call(req);
  }
  if (!r.ok()) return s;
  const JsonValue& metrics = r.doc.require("result").require("metrics");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const JsonValue& m = metrics.at(i);
    const std::string name = m.get_string("name", "");
    if (m.get_string("kind", "") == "histogram") {
      s.count[name] = m.get_number("count", 0);
      s.sum[name] = m.get_number("sum", 0);
    } else {
      s.value[name] = m.get_number("value", 0);
    }
  }
  s.ok = true;
  return s;
}

MixResult run_mix(const ServeRig& rig, std::uint64_t seed, double seconds,
                  Tracer* tr, Outcome& out) {
  constexpr int kClients = 4;
  MixResult mix;
  std::mutex mu;  // guards mix and out
  // Fresh seeds live above every warm seed (< 2^30), so they always miss;
  // the run seed picks where the stream starts.
  std::atomic<std::int64_t> fresh{
      (std::int64_t{1} << 40) +
      static_cast<std::int64_t>(seed % (1u << 20)) * (std::int64_t{1} << 20)};
  const auto& warm = rig.warm_set();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  const auto client_loop = [&](int k) {
    SplitMix64 rng(seed * 1000003 + static_cast<std::uint64_t>(k) + 1);
    std::vector<double> hits, misses;
    std::uint64_t sent = 0;
    Outcome local;
    try {
      serve::Client c(rig.socket(), "g80bench-" + std::to_string(k));
      {
        std::lock_guard<std::mutex> lock(mu);
        ++mix.hellos;
      }
      while (now_s() < deadline) {
        const bool repeat = rng.next_below(10) < 8;
        const std::size_t idx = rng.next_below(warm.size());
        serve::JobRequest job;
        if (repeat) {
          job = warm[idx];
        } else {
          const std::int64_t s = fresh.fetch_add(1);
          job = rng.next_below(2) == 0
                    ? saxpy_job(32768, s, kClasses[s % 3])
                    : matmul_job(kVariants[s % 4], s, kClasses[s % 3]);
        }
        serve::Response r;
        const double q0 = now_s();
        {
          Tracer::Scope span(tr, "serve", repeat ? "request warm" : "request fresh");
          r = c.call(job);
        }
        const double dt = now_s() - q0;
        ++sent;
        if (!r.ok()) {
          local.check(false, "request failed: " + r.error);
          continue;
        }
        (is_hit(r) ? hits : misses).push_back(dt);
        if (repeat) {
          local.check(r.result_json == rig.reference()[idx],
                      "warm result differs from its first simulation");
        } else {
          local.check(r.source == "sim", "fresh job was not simulated");
        }
      }
    } catch (const std::exception& e) {
      local.check(false, std::string("client session: ") + e.what());
    }
    std::lock_guard<std::mutex> lock(mu);
    mix.hit_s.insert(mix.hit_s.end(), hits.begin(), hits.end());
    mix.miss_s.insert(mix.miss_s.end(), misses.begin(), misses.end());
    mix.requests += sent;
    out.absorb(local);
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) threads.emplace_back(client_loop, k);
  for (auto& t : threads) t.join();
  mix.wall = now_s() - t0;
  return mix;
}

double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  const auto it = after.find(name);
  const auto jt = before.find(name);
  return (it != after.end() ? it->second : 0) -
         (jt != before.end() ? jt->second : 0);
}

MixRound run_mix_round(const ServeRig& rig, std::uint64_t seed,
                       double seconds, Tracer* tr, Outcome& out) {
  MixRound r;
  serve::Client probe(rig.socket(), "g80bench-probe");
  r.before = scrape(probe, tr);
  r.mix = run_mix(rig, seed, seconds, tr, out);
  serve::JobRequest stats;
  stats.op = serve::Op::kStats;
  {
    Tracer::Scope s(tr, "obs", "stats op");
    r.stats = probe.call(stats);
  }
  out.check(r.stats.ok(), "stats op failed: " + r.stats.error);
  r.after = scrape(probe, tr);

  const auto value = [&](const char* name) {
    return delta(r.after.value, r.before.value, name);
  };
  // Between the two snapshots: every session's hello and jobs, the stats
  // op, and the first scrape's response paired with the second's request.
  const double expected =
      static_cast<double>(r.mix.requests + r.mix.hellos) + 2;
  const double req = value("serve.requests_total");
  const double resp = value("serve.responses_total");
  const double traces = value("serve.traces_total");
  const double complete = value("serve.traces_complete_total");
  out.check(r.before.ok && r.after.ok && req == expected && resp == expected &&
                traces == req && complete == traces,
            "obs counts do not reconcile: requests " + std::to_string(req) +
                " responses " + std::to_string(resp) + " traces " +
                std::to_string(traces) + " complete " +
                std::to_string(complete) + " expected " +
                std::to_string(expected));
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace g80::bench
