#include "apps/matmul/matmul.h"

#include "common/error.h"
#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/str.h"
#include "core/cpu_calibration.h"
#include "prof/profiler.h"
#include "scope/session.h"

namespace g80::apps {

std::string MatmulConfig::name() const {
  switch (variant) {
    case MatmulVariant::kNaive: return "not tiled";
    case MatmulVariant::kNaiveUnrolled: return "not tiled, unrolled";
    case MatmulVariant::kTiled: return cat(tile, "x", tile, " tiled");
    case MatmulVariant::kTiledUnrolled:
      return cat(tile, "x", tile, " tiled & unrolled");
    case MatmulVariant::kPrefetch:
      return cat(tile, "x", tile, " tiled & unrolled + prefetch");
    case MatmulVariant::kRegisterTiled:
      return cat(tile, "x", tile, " register tiled (2 C/thread)");
  }
  G80_CHECK(false);
}

int MatmulConfig::regs_per_thread() const {
  // The paper's CUDA 0.8 register counts: 10 for the base versions, 9 after
  // complete unrolling eliminates the induction variable (§4.3), 11 with
  // prefetching (§4.4) — the count that drops occupancy to 2 blocks/SM.
  switch (variant) {
    case MatmulVariant::kNaive: return 10;
    case MatmulVariant::kNaiveUnrolled: return 10;
    case MatmulVariant::kTiled: return 10;
    case MatmulVariant::kTiledUnrolled: return 9;
    case MatmulVariant::kPrefetch: return 11;
    // Two accumulators plus doubled addressing state.
    case MatmulVariant::kRegisterTiled: return 14;
  }
  G80_CHECK(false);
}

MatmulWorkload MatmulWorkload::generate(int n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  MatmulWorkload w;
  w.n = n;
  w.a.resize(static_cast<std::size_t>(n) * n);
  w.b.resize(static_cast<std::size_t>(n) * n);
  for (auto& v : w.a) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : w.b) v = rng.uniform_f(-1.0f, 1.0f);
  return w;
}

void matmul_cpu(int n, const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c) {
  // Cache-aware i-k-j ordering, single thread (the paper's footnote-5
  // "CPU binary optimized only for cache usage" baseline).
  c.assign(static_cast<std::size_t>(n) * n, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const float aik = a[static_cast<std::size_t>(i) * n + k];
      const float* brow = &b[static_cast<std::size_t>(k) * n];
      float* crow = &c[static_cast<std::size_t>(i) * n];
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

LaunchStats run_matmul(Device& dev, const MatmulConfig& cfg, int n,
                       DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                       DeviceBuffer<float>& c, bool functional,
                       prof::Profiler* profiler, scope::Session* scope) {
  LaunchOptions opt;
  opt.regs_per_thread = cfg.regs_per_thread();
  opt.functional = functional;
  // The sinks read the finished launch under the variant's name.
  const auto record = [&](LaunchStats stats) {
    if (profiler != nullptr)
      profiler->record_launch(cfg.name(), dev.spec(), stats);
    if (scope != nullptr) scope->record_launch(cfg.name(), dev.spec(), stats);
    return stats;
  };

  if (cfg.variant == MatmulVariant::kNaive ||
      cfg.variant == MatmulVariant::kNaiveUnrolled) {
    G80_CHECK_MSG(n % 16 == 0, "matrix size must be a multiple of 16");
    const Dim3 block(16, 16);
    const Dim3 grid(static_cast<unsigned>(n / 16), static_cast<unsigned>(n / 16));
    const MatmulNaiveKernel k{n, cfg.variant == MatmulVariant::kNaiveUnrolled};
    return record(launch(dev, grid, block, opt, k, a, b, c));
  }

  G80_CHECK_MSG(n % cfg.tile == 0,
                "matrix size " << n << " not divisible by tile " << cfg.tile
                               << " (the paper pads 12x12 tiles, §4.2)");
  if (cfg.variant == MatmulVariant::kRegisterTiled) {
    G80_CHECK_MSG(cfg.tile % 2 == 0, "register tiling needs an even tile");
    const Dim3 block(static_cast<unsigned>(cfg.tile),
                     static_cast<unsigned>(cfg.tile / 2));
    const Dim3 grid(static_cast<unsigned>(n / cfg.tile),
                    static_cast<unsigned>(n / cfg.tile));
    return record(launch(dev, grid, block, opt,
                         MatmulRegTiledKernel{n, cfg.tile}, a, b, c));
  }
  const Dim3 block(static_cast<unsigned>(cfg.tile), static_cast<unsigned>(cfg.tile));
  const Dim3 grid(static_cast<unsigned>(n / cfg.tile),
                  static_cast<unsigned>(n / cfg.tile));
  const MatmulTiledKernel k{n, cfg.tile,
                            cfg.variant != MatmulVariant::kTiled,
                            cfg.variant == MatmulVariant::kPrefetch};
  return record(launch(dev, grid, block, opt, k, a, b, c));
}

AppInfo MatmulApp::info() const {
  return AppInfo{
      .name = "Matrix Mul",
      .description = "4Kx4K dense SGEMM, the §4 optimization case study",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue after tiling+unrolling (§4.3)",
      // §4.3: 91.14 GFLOPS on a 345.6 GFLOPS peak device; kernel speedup vs
      // a cache-optimized non-SIMD CPU binary "on the order of 100X"
      // (footnote 5).
      .paper_kernel_speedup = 100.0,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult MatmulApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int n = scale == RunScale::kQuick ? 96 : 512;
  const auto w = MatmulWorkload::generate(n, /*seed=*/7);

  AppResult r;
  r.info = info();

  // --- CPU baseline ---
  std::vector<float> c_ref;
  const double host_secs =
      measure_seconds([&] { matmul_cpu(n, w.a, w.b, c_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  // --- GPU port: best variant from the §4 study ---
  dev.ledger().reset();
  auto da = dev.alloc<float>(w.a.size());
  auto db = dev.alloc<float>(w.b.size());
  auto dc = dev.alloc<float>(w.a.size());
  da.copy_from_host(w.a);
  db.copy_from_host(w.b);

  const MatmulConfig cfg{MatmulVariant::kTiledUnrolled, 16};
  const auto stats = run_matmul(dev, cfg, n, da, db, dc, /*functional=*/true);
  const auto c_gpu = dc.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate ---
  double err = 0;
  for (std::size_t i = 0; i < c_ref.size(); ++i)
    err = std::max(err, rel_err(c_gpu[i], c_ref[i], 1e-3));
  finish_validation(r, err, 2e-4);
  return r;
}

}  // namespace g80::apps
