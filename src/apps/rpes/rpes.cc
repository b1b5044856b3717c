#include "apps/rpes/rpes.h"

#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

RpesWorkload RpesWorkload::generate(int pairs, std::uint64_t seed) {
  SplitMix64 rng(seed);
  RpesWorkload w;
  w.px.resize(pairs);
  w.py.resize(pairs);
  w.pz.resize(pairs);
  w.eta.resize(pairs);
  w.coef.resize(pairs);
  for (int i = 0; i < pairs; ++i) {
    w.px[i] = rng.uniform_f(-3.0f, 3.0f);
    w.py[i] = rng.uniform_f(-3.0f, 3.0f);
    w.pz[i] = rng.uniform_f(-3.0f, 3.0f);
    w.eta[i] = rng.uniform_f(0.2f, 4.0f);
    w.coef[i] = rng.uniform_f(0.1f, 1.0f);
  }
  // 8-point Gauss-Legendre on [0,1], stored as (node^2, weight).
  static const double nodes[kRpesQuadNodes] = {
      0.01985507, 0.10166676, 0.23723379, 0.40828268,
      0.59171732, 0.76276621, 0.89833324, 0.98014493};
  static const double weights[kRpesQuadNodes] = {
      0.05061427, 0.11119052, 0.15685332, 0.18134189,
      0.18134189, 0.15685332, 0.11119052, 0.05061427};
  w.quad.resize(kRpesQuadNodes);
  for (int k = 0; k < kRpesQuadNodes; ++k) {
    w.quad[k] = {static_cast<float>(nodes[k] * nodes[k]),
                 static_cast<float>(weights[k])};
  }
  // STO-like contraction: exponent scales and weights per primitive pair.
  w.contraction.resize(kRpesContraction);
  for (int cdeg = 0; cdeg < kRpesContraction; ++cdeg) {
    w.contraction[cdeg] = {0.5f + 0.5f * static_cast<float>(cdeg),
                           1.0f / static_cast<float>(1 + cdeg)};
  }
  return w;
}

void rpes_cpu(const RpesWorkload& w, std::vector<float>& integrals) {
  const int n = w.n();
  integrals.assign(static_cast<std::size_t>(n) * n, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const float dx = w.px[i] - w.px[j];
      const float dy = w.py[i] - w.py[j];
      const float dz = w.pz[i] - w.pz[j];
      const float r2 = dx * dx + (dy * dy + dz * dz);
      const float esum = w.eta[i] + w.eta[j];
      const float rho = (w.eta[i] * w.eta[j]) * (1.0f / esum);
      const float t_arg = rho * r2;
      float f0 = 0.0f;
      for (int cdeg = 0; cdeg < kRpesContraction; ++cdeg) {
        const float tc = t_arg * w.contraction[cdeg].x;
        float fc = 0.0f;
        for (int k = 0; k < kRpesQuadNodes; ++k)
          fc = w.quad[k].y * std::exp((0.0f - tc) * w.quad[k].x) + fc;
        f0 = w.contraction[cdeg].y * fc + f0;
      }
      const float pref = RpesKernel::kTwoPi52 *
                         ((1.0f / (w.eta[i] * w.eta[j])) *
                          (1.0f / std::sqrt(esum)));
      integrals[static_cast<std::size_t>(i) * n + j] =
          (w.coef[i] * w.coef[j]) * (pref * f0);
    }
  }
}

AppInfo RpesApp::info() const {
  return AppInfo{
      .name = "RPES",
      .description = "two-electron repulsion integrals via Rys quadrature",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (compute-dense, minimal global "
                          "traffic, §5.1 top-speedup group)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult RpesApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int pairs = scale == RunScale::kQuick ? 96 : 320;
  const auto w = RpesWorkload::generate(pairs, /*seed=*/81);

  AppResult r;
  r.info = info();

  std::vector<float> ref;
  const double host_secs = measure_seconds([&] { rpes_cpu(w, ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  auto d_px = dev.alloc<float>(w.px.size());
  auto d_py = dev.alloc<float>(w.py.size());
  auto d_pz = dev.alloc<float>(w.pz.size());
  auto d_eta = dev.alloc<float>(w.eta.size());
  auto d_coef = dev.alloc<float>(w.coef.size());
  d_px.copy_from_host(w.px);
  d_py.copy_from_host(w.py);
  d_pz.copy_from_host(w.pz);
  d_eta.copy_from_host(w.eta);
  d_coef.copy_from_host(w.coef);
  auto d_quad = dev.alloc_constant<Float2>(w.quad.size());
  d_quad.copy_from_host(w.quad);
  auto d_contr = dev.alloc_constant<Float2>(w.contraction.size());
  d_contr.copy_from_host(w.contraction);
  auto d_out = dev.alloc<float>(static_cast<std::size_t>(pairs) * pairs);

  LaunchOptions opt;
  opt.regs_per_thread = 16;
  const Dim3 block(16, 16);
  const Dim3 grid(static_cast<unsigned>(pairs / 16),
                  static_cast<unsigned>(pairs / 16));
  const auto stats = launch(dev, grid, block, opt, RpesKernel{pairs}, d_px,
                            d_py, d_pz, d_eta, d_coef, d_quad, d_contr, d_out);
  const auto out_gpu = d_out.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  double err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err = std::max(err, rel_err(out_gpu[i], ref[i], 1e-3));
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
