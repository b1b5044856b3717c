// The traced run's layer panel: one cost, count or model output per layer,
// each taken at a call into that layer's public functions.  Every traced
// run reports the whole panel, whatever its workload, so the per-layer
// metric set is the same on every workload.
#include "apps/matmul/matmul.h"
#include "common/rng.h"
#include "cudalite/ctx.h"
#include "exec/block_runner.h"
#include "exec/fiber.h"
#include "parts.h"
#include "serve/cache.h"
#include "serve/kernels.h"
#include "serve/scheduler.h"
#include "timing/model.h"

namespace g80::bench {

namespace {

// The exec and sanitizer panels use the 512^2 SGEMM of matmul512.
constexpr int kSgemmN = 512;
constexpr std::uint64_t kSgemmBlocks = (kSgemmN / 16) * (kSgemmN / 16);
constexpr int kSgemmThreads = 16 * 16;

void exec_layer(const RunConfig& rc, Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel exec");
  Device dev;
  Sgemm m(dev, kSgemmN, rc.seed);
  LaunchOptions opt = sgemm_options();
  opt.sample_blocks = 0;  // functional pass only
  const double t0 = now_s();
  sgemm_launch(dev, m, opt, tr);
  const double functional = now_s() - t0;

  // One block run directly on a BlockRunner gives the barrier count that
  // every block of the grid repeats.
  BlockRunner runner(kSgemmThreads, dev.spec().shared_mem_per_sm);
  BlockEnv env{&runner, Dim3(kSgemmN / 16, kSgemmN / 16), Dim3(16, 16),
               Dim3(0, 0)};
  const apps::MatmulTiledKernel kernel{kSgemmN, 16, true, false};
  {
    Tracer::Scope s(tr, "exec", "BlockRunner::run");
    runner.run(kSgemmThreads, [&](int tid) {
      FuncCtx ctx(&env, tid, NullRecorder{});
      kernel(ctx, m.a, m.b, m.c);
    });
  }
  const auto barriers = static_cast<std::uint64_t>(runner.barriers_executed());
  const double resumes =
      static_cast<double>(kSgemmBlocks * kSgemmThreads * (barriers + 1));

  constexpr int kRoundTrips = 1 << 20;
  Fiber f;
  bool stop = false;
  f.start([&] {
    while (!stop) f.yield();
  });
  const double f0 = now_s();
  {
    Tracer::Scope s(tr, "exec", "Fiber::resume x 2^20");
    for (int i = 0; i < kRoundTrips; ++i) f.resume();
  }
  const double round_trip = (now_s() - f0) / kRoundTrips;
  stop = true;
  f.resume();

  out.add("exec.functional_pass_s", functional, "s");
  out.add("exec.resumes", resumes, "count");
  out.add("exec.barrier_generations",
          static_cast<double>(kSgemmBlocks * barriers), "count");
  out.add("exec.ns_per_resume", functional * 1e9 / resumes, "ns");
  out.add("exec.fiber_round_trip_ns", round_trip * 1e9, "ns");
}

void walk_layers(const RunConfig& rc, Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel walk");
  Device dev;
  WalkBuffers bufs(dev);
  WorkerPool pool(pool_width());
  const Walk w1 = run_walk(dev, bufs, nullptr, false, tr);
  const Walk wn = run_walk(dev, bufs, &pool, false, tr);
  const Walk wo = run_walk(dev, bufs, &pool, true, tr);
  bool same = true;
  for (std::size_t i = 0; i < kWalkVersions.size(); ++i)
    same = same && w1.stats[i].trace == wn.stats[i].trace &&
           wo.stats[i].trace == wn.stats[i].trace &&
           w1.counters[i] == wn.counters[i] && wo.counters[i] == wn.counters[i];
  out.check(same, "walk differs across pool widths or observers");

  double warps = 0, uncoalesced = 0, serialize = 0, dram = 0;
  for (std::size_t i = 0; i < kWalkVersions.size(); ++i) {
    warps += static_cast<double>(wn.stats[i].trace.num_warps);
    uncoalesced += static_cast<double>(wn.counters[i].gld_uncoalesced);
    serialize += static_cast<double>(wn.counters[i].warp_serialize);
    dram += static_cast<double>(wn.counters[i].dram_bytes);
  }

  // The timing model alone, on the tiled + unrolled version's trace.
  const LaunchStats& tu = wn.stats[2];
  const std::uint64_t blocks = tu.grid.count();
  constexpr int kModelCalls = 2000;
  int same_model = 0;
  const double m0 = now_s();
  {
    Tracer::Scope s(tr, "timing", "simulate_kernel x 2000");
    for (int i = 0; i < kModelCalls; ++i)
      same_model += simulate_kernel(dev.spec(), tu.occupancy, blocks, tu.trace)
                        .seconds == tu.timing.seconds;
  }
  const double model_us = (now_s() - m0) / kModelCalls * 1e6;
  out.check(same_model == kModelCalls, "simulate_kernel is not deterministic");

  out.add("exec.pool_speedup", w1.seconds / wn.seconds, "x");
  out.add("cudalite.trace_pass_s", wn.seconds, "s");
  out.add("cudalite.traced_warps", warps, "count");
  out.add("cudalite.trace_ns_per_warp", wn.seconds * 1e9 / warps, "ns");
  out.add("prof.attach_overhead_pct", 100.0 * (wo.seconds / wn.seconds - 1),
          "%");
  out.add("timing.simulate_kernel_us", model_us, "us");
  for (std::size_t i = 0; i < kWalkVersions.size(); ++i)
    out.add(std::string("timing.gflops.") + kWalkVersions[i].key,
            wn.stats[i].timing.gflops, "GFLOP/s");
  out.add("timing.model_err_pct", model_err_pct(wn), "%");
  out.add("mem.gld_uncoalesced", uncoalesced, "count");
  out.add("mem.warp_serialize", serialize, "count");
  out.add("mem.dram_bytes", dram, "bytes");
}

void sanitizer_layer(const RunConfig& rc, Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel sanitizer");
  Device dev;
  Sgemm m(dev, kSgemmN, rc.seed);
  const double t0 = now_s();
  const LaunchStats st = sanitize_launch(dev, m, /*sample_blocks=*/0, tr);
  const double pass = now_s() - t0;
  out.check(st.sanitizer.clean() && st.sanitizer.blocks_checked == kSgemmBlocks,
            "sanitizer: " + st.sanitizer.summary());
  out.add("sanitizer.pass_s", pass, "s");
  out.add("sanitizer.blocks", static_cast<double>(st.sanitizer.blocks_checked),
          "count");
  out.add("sanitizer.findings",
          static_cast<double>(st.sanitizer.findings.size()), "count");
}

void apps_layer(Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel apps");
  const SuitePass p = run_suite_pass(/*full_scale=*/true, tr, out);
  for (std::size_t i = 0; i < kAppKeys.size(); ++i)
    out.add(std::string("apps.") + kAppKeys[i] + "_s", p.seconds[i], "s");
  out.add("apps.launches", p.launches, "count");
  out.add("apps.validated", p.validated, "count");
  out.add("apps.modeled_gpu_s", p.modeled_gpu_s, "s");
}

// serve's own functions called directly, with no daemon in the way.
void serve_direct(const RunConfig& rc, Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel serve direct");
  serve::JobRequest job;
  job.op = serve::Op::kLaunch;
  job.kernel = "matmul";
  job.n = 96;
  job.variant = "tiled_unrolled";
  job.seed = static_cast<std::int64_t>(rc.seed % (1u << 30));
  Device dev(serve::spec_for_class(job.device_class));
  const ResiliencePolicy policy = serve::PoolConfig{}.policy;
  std::vector<double> job_s;
  std::string payload;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    serve::JobOutcome o;
    {
      Tracer::Scope s(tr, "serve", "run_job");
      o = serve::run_job(dev, job, policy);
    }
    job_s.push_back(now_s() - t0);
    out.check(o.status == Status::kSuccess && (payload.empty() || o.payload == payload),
              "run_job failed or is not deterministic: " + o.error);
    payload = o.payload;
  }

  constexpr int kKeys = 1000, kLookups = 20000;
  serve::ResultCache cache(1024);
  SplitMix64 rng(rc.seed);
  std::vector<std::uint64_t> keys(kKeys);
  for (auto& k : keys) k = rng.next_u64();
  const double s0 = now_s();
  {
    Tracer::Scope s(tr, "serve", "ResultCache::store x 1000");
    for (const auto k : keys) cache.store(k, payload);
  }
  const double store_us = (now_s() - s0) / kKeys * 1e6;
  std::string got;
  int hits = 0;
  const double l0 = now_s();
  {
    Tracer::Scope s(tr, "serve", "ResultCache::lookup x 20000");
    for (int i = 0; i < kLookups; ++i)
      hits += cache.lookup(keys[static_cast<std::size_t>(i) % kKeys], got) ==
              serve::ResultCache::Tier::kMemory;
  }
  const double lookup_us = (now_s() - l0) / kLookups * 1e6;
  out.check(hits == kLookups && got == payload, "cache lookups missed");

  constexpr int kCodec = 20000;
  int same = 0;
  const double c0 = now_s();
  {
    Tracer::Scope s(tr, "serve", "encode_request + parse_request x 20000");
    for (int i = 0; i < kCodec; ++i) {
      const serve::JobRequest back =
          serve::parse_request(JsonValue::parse(serve::encode_request(job)));
      same += back.seed == job.seed && back.variant == job.variant;
    }
  }
  const double codec_us = (now_s() - c0) / kCodec * 1e6;
  out.check(same == kCodec, "request codec does not round-trip");

  out.add("serve.run_job_ms", median(job_s) * 1e3, "ms");
  out.add("serve.cache_lookup_us", lookup_us, "us");
  out.add("serve.cache_store_us", store_us, "us");
  out.add("serve.codec_us", codec_us, "us");
}

// A short hit/miss mix against an in-process daemon, scraped before and
// after: exact per-phase means from histogram sums and counts, and the
// daemon's own counters.
void serve_daemon(const RunConfig& rc, Tracer* tr, Outcome& out) {
  Tracer::Scope panel(tr, "bench", "panel serve daemon");
  ServeRig rig(rc.socket, rc.seed);
  out.check(rig.warm_ok(), "serve panel: warm set did not simulate");
  const MixRound r = run_mix_round(rig, rc.seed, 1.0, tr, out);
  const Scrape& before = r.before;
  const Scrape& after = r.after;

  for (const char* ph : {"parse", "cache_lookup", "admission", "queue_wait",
                         "simulate", "cache_store", "respond"}) {
    const std::string h = std::string("serve.latency.") + ph;
    const double n = delta(after.count, before.count, h);
    out.add(std::string("serve.phase.") + ph + "_mean_ms",
            n > 0 ? 1e3 * delta(after.sum, before.sum, h) / n : 0, "ms");
  }
  const JsonValue* server =
      r.stats.ok() ? &r.stats.doc.require("result").require("server") : nullptr;
  const auto field = [&](const char* obj, const char* key) {
    if (server == nullptr) return 0.0;
    const JsonValue& o = obj != nullptr ? server->require(obj) : *server;
    return static_cast<double>(o.get_int(key, 0));
  };
  const double hits = field("cache", "mem_hits") + field("cache", "disk_hits");
  const double lookups = hits + field("cache", "misses");
  out.add("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  out.add("serve.cache_evictions", field("cache", "evictions"), "count");
  out.add("serve.rejected_not_ready", field(nullptr, "rejected_not_ready"),
          "count");
  out.add("serve.jobs_failed", field(nullptr, "jobs_failed"), "count");
  out.add("serve.device_resets", field(nullptr, "device_resets"), "count");

  serve::Client probe(rig.socket(), "g80bench-panel");
  std::vector<double> scrape_s;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    scrape(probe, tr);
    scrape_s.push_back(now_s() - t0);
  }
  const double traces = delta(after.value, before.value, "serve.traces_total");
  out.add("obs.scrape_ms", median(scrape_s) * 1e3, "ms");
  out.add("obs.traces_complete_ratio",
          traces > 0 ? delta(after.value, before.value,
                             "serve.traces_complete_total") / traces
                     : 0,
          "ratio");
}

}  // namespace

void run_layer_panel(const RunConfig& rc, Tracer* tr, Outcome& out) {
  exec_layer(rc, tr, out);
  walk_layers(rc, tr, out);
  sanitizer_layer(rc, tr, out);
  apps_layer(tr, out);
  serve_direct(rc, tr, out);
  serve_daemon(rc, tr, out);
}

}  // namespace g80::bench
