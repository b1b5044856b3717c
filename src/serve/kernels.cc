#include "serve/kernels.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

#include "apps/matmul/matmul.h"
#include "apps/saxpy/saxpy.h"
#include "common/str.h"
#include "core/report.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "prof/profiler.h"

namespace g80::serve {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

apps::MatmulVariant variant_from_name(const std::string& name) {
  if (name == "naive") return apps::MatmulVariant::kNaive;
  if (name == "naive_unrolled") return apps::MatmulVariant::kNaiveUnrolled;
  if (name == "tiled") return apps::MatmulVariant::kTiled;
  if (name == "tiled_unrolled") return apps::MatmulVariant::kTiledUnrolled;
  if (name == "prefetch") return apps::MatmulVariant::kPrefetch;
  if (name == "regtiled") return apps::MatmulVariant::kRegisterTiled;
  throw StatusError(Status::kInvalidValue,
                    cat("unknown matmul variant \"", name, "\""));
}

// Canonical launch configuration before overrides.
LaunchConfig canonical_config(const JobRequest& req) {
  LaunchConfig c;
  if (req.kernel == "saxpy") {
    c.block_x = 256;
    c.grid_x = static_cast<std::uint32_t>((req.n + c.block_x - 1) / c.block_x);
    c.regs_per_thread = 5;
    return c;
  }
  // matmul: shapes from run_matmul (apps/matmul/matmul.cc).
  const apps::MatmulVariant v = variant_from_name(req.variant);
  apps::MatmulConfig mc{v, static_cast<int>(req.tile)};
  c.regs_per_thread = mc.regs_per_thread();
  const auto n = static_cast<std::uint32_t>(req.n);
  const auto tile = static_cast<std::uint32_t>(req.tile);
  if (v == apps::MatmulVariant::kNaive ||
      v == apps::MatmulVariant::kNaiveUnrolled) {
    if (req.n % 16 != 0) {
      throw StatusError(Status::kInvalidConfiguration,
                        cat("matmul n=", req.n, " must be a multiple of 16"));
    }
    c.block_x = c.block_y = 16;
    c.grid_x = c.grid_y = n / 16;
    return c;
  }
  if (req.n % req.tile != 0) {
    throw StatusError(Status::kInvalidConfiguration,
                      cat("matmul n=", req.n, " not divisible by tile ",
                          req.tile));
  }
  if (v == apps::MatmulVariant::kRegisterTiled) {
    if (req.tile % 2 != 0) {
      throw StatusError(Status::kInvalidConfiguration,
                        "register tiling needs an even tile");
    }
    c.block_x = tile;
    c.block_y = tile / 2;
  } else {
    c.block_x = c.block_y = tile;
  }
  c.grid_x = c.grid_y = n / tile;
  return c;
}

LaunchOptions options_from_config(const LaunchConfig& c) {
  LaunchOptions opt;
  opt.regs_per_thread = c.regs_per_thread;
  opt.sample_blocks = c.sample_blocks;
  opt.functional = c.functional;
  return opt;
}

void apply_fault(const JobRequest& req, LaunchOptions& opt,
                 ResiliencePolicy& policy) {
  const FaultSpec& fault = req.fault;
  if (!fault.enabled()) return;
  if (fault.kind == "oob_store") {
    opt.sanitize.enabled = true;
    opt.sanitize.fault.corrupt_global_tid = 0;
    opt.sanitize.fault.block = 0;
  } else if (fault.kind == "skip_barrier") {
    // saxpy and the naive matmuls never __syncthreads.
    if (req.kernel != "matmul" || req.variant == "naive" ||
        req.variant == "naive_unrolled") {
      throw StatusError(
          Status::kInvalidValue,
          "fault \"skip_barrier\" needs a __syncthreads kernel (matmul "
          "tiled/regtiled)");
    }
    opt.sanitize.enabled = true;
    opt.sanitize.fault.skip_barrier_tid = 0;
    opt.sanitize.fault.block = 0;
  } else if (fault.kind == "modeled_timeout") {
    // Deterministic: the modeled watchdog rejects the launch before the
    // functional pass; retries would fail identically, so don't retry.
    policy.enabled = true;
    policy.modeled_timeout_s = 1e-12;
    policy.max_retries = 0;
  }
}

void write_config(JsonWriter& w, const LaunchConfig& c) {
  w.key("config");
  w.begin_object();
  w.kv("grid_x", static_cast<std::uint64_t>(c.grid_x));
  w.kv("grid_y", static_cast<std::uint64_t>(c.grid_y));
  w.kv("block_x", static_cast<std::uint64_t>(c.block_x));
  w.kv("block_y", static_cast<std::uint64_t>(c.block_y));
  w.kv("block_z", static_cast<std::uint64_t>(c.block_z));
  w.kv("regs_per_thread", c.regs_per_thread);
  w.kv("sample_blocks", c.sample_blocks);
  w.kv("functional", c.functional);
  w.end_object();
}

void write_payload_header(JsonWriter& w, const JobRequest& req,
                          const DeviceSpec& spec, std::uint64_t cache_key) {
  w.kv("model_version", kModelVersion);
  w.kv("op", op_name(req.op));
  w.kv("kernel", req.kernel);
  w.kv("device", spec.name);
  w.kv("device_spec_hash", hex16(device_spec_hash(spec)));
  w.kv("cache_key", hex16(cache_key));
  w.key("params");
  w.begin_object();
  w.kv("n", static_cast<std::uint64_t>(req.n));
  w.kv("seed", static_cast<std::uint64_t>(req.seed));
  if (req.kernel == "matmul") {
    w.kv("tile", static_cast<std::uint64_t>(req.tile));
    w.kv("variant", req.variant);
  }
  w.end_object();
}

// Launches the job's kernel once on `dev` with the given options.  Returns
// the stats; fills `checksum` with a content hash of the functional output
// (0 when functional=false).
LaunchStats launch_once(Device& dev, const JobRequest& req,
                        const LaunchConfig& c, const LaunchOptions& opt,
                        std::uint64_t& checksum) {
  const Dim3 grid(c.grid_x, c.grid_y);
  const Dim3 block(c.block_x, c.block_y, c.block_z);
  checksum = 0;
  if (req.kernel == "saxpy") {
    const std::size_t n = static_cast<std::size_t>(req.n);
    const auto w = apps::SaxpyWorkload::generate(
        n, static_cast<std::uint64_t>(req.seed));
    auto dx = dev.alloc<float>(n);
    auto dy = dev.alloc<float>(n);
    auto dout = dev.alloc<float>(n);
    dx.copy_from_host(w.x);
    dy.copy_from_host(w.y);
    const auto stats =
        launch(dev, grid, block, opt,
               apps::SaxpyKernel{w.a, static_cast<int>(n)}, dx, dy, dout);
    if (opt.functional) {
      const auto out = dout.copy_to_host();
      ContentHasher h;
      h.raw(out.data(), out.size() * sizeof(float));
      checksum = h.digest();
    }
    return stats;
  }

  const int n = static_cast<int>(req.n);
  const auto w =
      apps::MatmulWorkload::generate(n, static_cast<std::uint64_t>(req.seed));
  auto da = dev.alloc<float>(w.a.size());
  auto db = dev.alloc<float>(w.b.size());
  auto dc = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  da.copy_from_host(w.a);
  db.copy_from_host(w.b);
  const apps::MatmulVariant v = variant_from_name(req.variant);
  LaunchStats stats;
  if (v == apps::MatmulVariant::kNaive ||
      v == apps::MatmulVariant::kNaiveUnrolled) {
    stats = launch(dev, grid, block, opt,
                   apps::MatmulNaiveKernel{
                       n, v == apps::MatmulVariant::kNaiveUnrolled},
                   da, db, dc);
  } else if (v == apps::MatmulVariant::kRegisterTiled) {
    stats = launch(dev, grid, block, opt,
                   apps::MatmulRegTiledKernel{n, static_cast<int>(req.tile)},
                   da, db, dc);
  } else {
    stats = launch(dev, grid, block, opt,
                   apps::MatmulTiledKernel{
                       n, static_cast<int>(req.tile),
                       v != apps::MatmulVariant::kTiled,
                       v == apps::MatmulVariant::kPrefetch},
                   da, db, dc);
  }
  if (opt.functional) {
    const auto out = dc.copy_to_host();
    ContentHasher h;
    h.raw(out.data(), out.size() * sizeof(float));
    checksum = h.digest();
  }
  return stats;
}

std::string run_launch_payload(Device& dev, const JobRequest& req,
                               const LaunchConfig& c,
                               const ResiliencePolicy& policy,
                               AttemptObserver* attempts,
                               std::uint64_t cache_key,
                               double& modeled_seconds) {
  LaunchOptions opt = options_from_config(c);
  ResiliencePolicy job_policy = policy;
  apply_fault(req, opt, job_policy);
  opt.resilience = job_policy;
  opt.attempts = attempts;
  // Counters are derived from trace samples, so a profile job that asked
  // for zero samples still traces one block.
  if (req.op == Op::kProfile && opt.sample_blocks < 1) opt.sample_blocks = 1;

  std::uint64_t checksum = 0;
  const LaunchStats stats = launch_once(dev, req, c, opt, checksum);
  modeled_seconds = stats.timing.seconds;

  JsonWriter w;
  w.begin_object();
  write_payload_header(w, req, dev.spec(), cache_key);
  write_config(w, c);
  w.kv("output_checksum", hex16(checksum));
  w.key("stats");
  w.raw(launch_stats_json(dev.spec(), stats));
  if (req.op == Op::kProfile) {
    prof::Profiler profiler;
    profiler.record_launch(req.kernel, dev.spec(), stats);
    const auto kernels = profiler.kernels();
    if (!kernels.empty()) {
      const auto& k = kernels.front();
      w.key("profile");
      w.begin_object();
      w.kv("launches", k.launches);
      w.kv("gld_coalesced", k.counters.gld_coalesced);
      w.kv("gld_uncoalesced", k.counters.gld_uncoalesced);
      w.kv("gst_coalesced", k.counters.gst_coalesced);
      w.kv("gst_uncoalesced", k.counters.gst_uncoalesced);
      w.kv("warp_serialize", k.counters.warp_serialize);
      w.kv("branch", k.counters.branch);
      w.kv("divergent_branch", k.counters.divergent_branch);
      w.kv("sync", k.counters.sync);
      w.end_object();
    }
  }
  w.end_object();
  return w.str();
}

std::string run_autotune_payload(Device& dev, const JobRequest& req,
                                 const LaunchConfig& base,
                                 const ResiliencePolicy& policy,
                                 AttemptObserver* attempts,
                                 std::uint64_t cache_key,
                                 double& modeled_seconds) {
  // Candidate sweep.  Timing-only launches (functional=false): the modeled
  // time is what's being tuned and skipping the functional pass keeps the
  // sweep cheap.  All candidates share the request's workload parameters.
  struct Candidate {
    JobRequest req;
    LaunchConfig config;
  };
  std::vector<Candidate> cands;
  if (req.kernel == "saxpy") {
    for (const std::uint32_t bx : {64u, 128u, 256u, 512u}) {
      JobRequest r = req;
      r.op = Op::kLaunch;
      LaunchConfig c = base;
      c.block_x = bx;
      c.grid_x = static_cast<std::uint32_t>((req.n + bx - 1) / bx);
      c.functional = false;
      cands.push_back({r, c});
    }
  } else {
    const auto add_candidate = [&](const std::string& variant,
                                   std::int64_t tile) {
      for (const Candidate& existing : cands) {
        if (existing.req.variant == variant && existing.req.tile == tile) {
          return;
        }
      }
      JobRequest r = req;
      r.op = Op::kLaunch;
      r.variant = variant;
      r.tile = tile;
      r.config = ConfigOverrides{};  // canonical shapes per candidate
      LaunchConfig c = canonical_config(r);
      c.sample_blocks = base.sample_blocks;
      c.functional = false;
      cands.push_back({r, c});
    };
    // The request's own (variant, tile) is always a candidate: it already
    // passed resolve_config, and it keeps the sweep non-empty when n is
    // divisible by neither standard tile (e.g. n=12 with tile=2) — an
    // empty candidate list would leave nothing to report as "best".
    add_candidate(req.variant, req.tile);
    for (const char* variant :
         {"tiled", "tiled_unrolled", "prefetch", "regtiled"}) {
      for (const std::int64_t tile : {8, 16}) {
        if (req.n % tile != 0) continue;
        add_candidate(variant, tile);
      }
    }
  }

  JsonWriter w;
  w.begin_object();
  write_payload_header(w, req, dev.spec(), cache_key);
  w.key("candidates");
  w.begin_array();
  std::size_t best = 0;
  double best_seconds = std::numeric_limits<double>::infinity();
  std::vector<double> seconds(cands.size(), 0);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    LaunchOptions opt = options_from_config(cands[i].config);
    opt.resilience = policy;
    opt.attempts = attempts;
    std::uint64_t checksum = 0;
    const LaunchStats stats =
        launch_once(dev, cands[i].req, cands[i].config, opt, checksum);
    seconds[i] = stats.timing.seconds;
    modeled_seconds += seconds[i];
    if (seconds[i] < best_seconds) {
      best_seconds = seconds[i];
      best = i;
    }
    w.begin_object();
    if (req.kernel == "saxpy") {
      w.kv("block_x", static_cast<std::uint64_t>(cands[i].config.block_x));
    } else {
      w.kv("variant", cands[i].req.variant);
      w.kv("tile", static_cast<std::uint64_t>(cands[i].req.tile));
    }
    w.kv("modeled_ms", stats.timing.seconds * 1e3);
    w.kv("gflops", stats.timing.gflops);
    w.kv("bottleneck", bottleneck_name(stats.timing.bottleneck));
    w.end_object();
  }
  w.end_array();
  w.key("best");
  w.begin_object();
  if (req.kernel == "saxpy") {
    w.kv("block_x", static_cast<std::uint64_t>(cands[best].config.block_x));
  } else {
    w.kv("variant", cands[best].req.variant);
    w.kv("tile", static_cast<std::uint64_t>(cands[best].req.tile));
  }
  w.kv("modeled_ms", best_seconds * 1e3);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

DeviceSpec spec_for_class(const std::string& device_class) {
  if (device_class == "gtx") return DeviceSpec::geforce_8800_gtx();
  if (device_class == "ultra") return DeviceSpec::geforce_8800_ultra();
  if (device_class == "gts") return DeviceSpec::geforce_8800_gts();
  throw StatusError(Status::kInvalidValue,
                    cat("unknown device_class \"", device_class, "\""));
}

LaunchConfig resolve_config(const JobRequest& req) {
  LaunchConfig c = canonical_config(req);
  LaunchConfig resolved = c;
  req.config.apply(resolved);
  if (req.kernel == "saxpy") {
    if (resolved.block_y != 1 || resolved.block_z != 1 ||
        resolved.grid_y != 1) {
      throw StatusError(Status::kInvalidConfiguration,
                        "saxpy launches are 1-D (block_y/z and grid_y = 1)");
    }
    const std::uint64_t covered =
        static_cast<std::uint64_t>(resolved.grid_x) * resolved.block_x;
    if (covered < static_cast<std::uint64_t>(req.n)) {
      throw StatusError(
          Status::kInvalidConfiguration,
          cat("grid of ", covered, " threads cannot cover n=", req.n));
    }
  } else {
    // The matmul kernels' index arithmetic assumes the canonical shapes.
    if (resolved.grid_x != c.grid_x || resolved.grid_y != c.grid_y ||
        resolved.block_x != c.block_x || resolved.block_y != c.block_y ||
        resolved.block_z != 1) {
      throw StatusError(
          Status::kInvalidConfiguration,
          cat("matmul variant \"", req.variant, "\" with n=", req.n,
              " tile=", req.tile, " requires grid ", c.grid_x, "x", c.grid_y,
              ", block ", c.block_x, "x", c.block_y));
    }
  }
  return resolved;
}

std::uint64_t job_cache_key(const JobRequest& req, const LaunchConfig& resolved,
                            std::uint64_t device_spec_hash) {
  ContentHasher h;
  h.i64(kModelVersion);
  h.str(op_name(req.op));
  h.str(req.kernel);
  h.i64(req.n);
  h.i64(req.seed);
  h.i64(req.tile);
  h.str(req.variant);
  h.u64(launch_config_hash(resolved));
  h.u64(device_spec_hash);
  h.str(req.fault.kind);
  return h.digest();
}

JobOutcome run_job(Device& dev, const JobRequest& req,
                   const ResiliencePolicy& policy, AttemptObserver* attempts) {
  JobOutcome out;
  const std::uint64_t h2d0 = dev.ledger().lifetime_h2d_bytes();
  const std::uint64_t d2h0 = dev.ledger().lifetime_d2h_bytes();
  try {
    const LaunchConfig c = resolve_config(req);
    const std::uint64_t key =
        job_cache_key(req, c, device_spec_hash(dev.spec()));
    if (req.op == Op::kAutotune) {
      out.payload = run_autotune_payload(dev, req, c, policy, attempts, key,
                                         out.modeled_seconds);
    } else {
      out.payload = run_launch_payload(dev, req, c, policy, attempts, key,
                                       out.modeled_seconds);
    }
  } catch (const StatusError& e) {
    out.status = e.status();
    out.error = e.what();
  } catch (const Error& e) {
    out.status = Status::kLaunchFailure;
    out.error = e.what();
  }
  out.h2d_bytes = dev.ledger().lifetime_h2d_bytes() - h2d0;
  out.d2h_bytes = dev.ledger().lifetime_d2h_bytes() - d2h0;
  return out;
}

}  // namespace g80::serve
