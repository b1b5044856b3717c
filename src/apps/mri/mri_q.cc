#include "apps/mri/mri_q.h"

#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

MriWorkload MriWorkload::generate(int voxels, int samples, std::uint64_t seed) {
  SplitMix64 rng(seed);
  MriWorkload w;
  w.x.resize(voxels);
  w.y.resize(voxels);
  w.z.resize(voxels);
  for (int i = 0; i < voxels; ++i) {
    w.x[i] = rng.uniform_f(-0.5f, 0.5f);
    w.y[i] = rng.uniform_f(-0.5f, 0.5f);
    w.z[i] = rng.uniform_f(-0.5f, 0.5f);
  }
  w.samples.resize(samples);
  w.rho.resize(samples);
  for (int s = 0; s < samples; ++s) {
    // Spiral-ish trajectory through k-space.
    const float t = static_cast<float>(s) / static_cast<float>(samples);
    const float ang = 32.0f * t;
    w.samples[s] = {t * std::cos(ang), t * std::sin(ang),
                    rng.uniform_f(-0.3f, 0.3f), rng.uniform_f(0.1f, 1.0f)};
    w.rho[s] = {rng.uniform_f(-1.0f, 1.0f), rng.uniform_f(-1.0f, 1.0f)};
  }
  return w;
}

void mri_q_cpu(const MriWorkload& w, std::vector<float>& qr,
               std::vector<float>& qi) {
  const std::size_t nv = w.x.size();
  qr.assign(nv, 0.0f);
  qi.assign(nv, 0.0f);
  for (std::size_t v = 0; v < nv; ++v) {
    float sum_r = 0.0f, sum_i = 0.0f;
    for (const auto& k : w.samples) {
      const float arg = MriQKernel::kTwoPi *
                        (k.x * w.x[v] + (k.y * w.y[v] + k.z * w.z[v]));
      sum_r = k.w * std::cos(arg) + sum_r;
      sum_i = k.w * std::sin(arg) + sum_i;
    }
    qr[v] = sum_r;
    qi[v] = sum_i;
  }
}

AppInfo MriQApp::info() const {
  return AppInfo{
      .name = "MRI-Q",
      .description = "Q-matrix for non-Cartesian MRI reconstruction",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (SFU-heavy, low global ratio)",
      // §1/§5.1: the suite's maximum — 457X kernel, 431X application.
      .paper_kernel_speedup = 457.0,
      .paper_app_speedup = 431.0,
  };
}

AppResult MriQApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int voxels = scale == RunScale::kQuick ? 1024 : 8192;
  const int samples = scale == RunScale::kQuick ? 128 : 1024;
  const auto w = MriWorkload::generate(voxels, samples, /*seed=*/21);

  AppResult r;
  r.info = info();

  // --- CPU baseline (the paper spent real effort making this fair: ~4.3x
  // over naive; our reference is already the tight loop form) ---
  std::vector<float> qr_ref, qi_ref;
  const double host_secs = measure_seconds([&] { mri_q_cpu(w, qr_ref, qi_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  // --- GPU port ---
  dev.ledger().reset();
  auto dx = dev.alloc<float>(voxels);
  auto dy = dev.alloc<float>(voxels);
  auto dz = dev.alloc<float>(voxels);
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);
  dz.copy_from_host(w.z);
  auto dk = dev.alloc_constant<Float4>(w.samples.size());
  dk.copy_from_host(w.samples);
  auto dqr = dev.alloc<float>(voxels);
  auto dqi = dev.alloc<float>(voxels);

  LaunchOptions opt;
  opt.regs_per_thread = 11;
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>((voxels + 255) / 256));
  const auto stats = launch(dev, grid, block, opt, MriQKernel{voxels, true},
                            dx, dy, dz, dk, dqr, dqi);
  const auto qr_gpu = dqr.copy_to_host();
  const auto qi_gpu = dqi.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate ---
  double err = 0;
  for (int v = 0; v < voxels; ++v) {
    err = std::max(err, rel_err(qr_gpu[v], qr_ref[v], 1e-2));
    err = std::max(err, rel_err(qi_gpu[v], qi_ref[v], 1e-2));
  }
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
