#include "apps/mri/mri_fhd.h"

#include <cmath>

#include "common/measure.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

void mri_fhd_cpu(const MriWorkload& w, std::vector<float>& fr,
                 std::vector<float>& fi) {
  const std::size_t nv = w.x.size();
  fr.assign(nv, 0.0f);
  fi.assign(nv, 0.0f);
  for (std::size_t v = 0; v < nv; ++v) {
    float sum_r = 0.0f, sum_i = 0.0f;
    for (std::size_t s = 0; s < w.samples.size(); ++s) {
      const auto& k = w.samples[s];
      const auto& d = w.rho[s];
      const float arg = MriQKernel::kTwoPi *
                        (k.x * w.x[v] + (k.y * w.y[v] + k.z * w.z[v]));
      const float c = std::cos(arg);
      const float sn = std::sin(arg);
      sum_r = d.x * c + (d.y * sn + sum_r);
      sum_i = d.y * c + ((0.0f - d.x) * sn + sum_i);
    }
    fr[v] = sum_r;
    fi[v] = sum_i;
  }
}

AppInfo MriFhdApp::info() const {
  return AppInfo{
      .name = "MRI-FHD",
      .description = "F^H d vector for non-Cartesian MRI reconstruction",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (SFU-heavy, low global ratio)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult MriFhdApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int voxels = scale == RunScale::kQuick ? 1024 : 8192;
  const int samples = scale == RunScale::kQuick ? 128 : 1024;
  const auto w = MriWorkload::generate(voxels, samples, /*seed=*/22);

  AppResult r;
  r.info = info();

  std::vector<float> fr_ref, fi_ref;
  const double host_secs =
      measure_seconds([&] { mri_fhd_cpu(w, fr_ref, fi_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  auto dx = dev.alloc<float>(voxels);
  auto dy = dev.alloc<float>(voxels);
  auto dz = dev.alloc<float>(voxels);
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);
  dz.copy_from_host(w.z);
  auto dk = dev.alloc_constant<Float4>(w.samples.size());
  dk.copy_from_host(w.samples);
  auto drho = dev.alloc_constant<Float2>(w.rho.size());
  drho.copy_from_host(w.rho);
  auto dfr = dev.alloc<float>(voxels);
  auto dfi = dev.alloc<float>(voxels);

  LaunchOptions opt;
  opt.regs_per_thread = 12;
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>((voxels + 255) / 256));
  const auto stats = launch(dev, grid, block, opt, MriFhdKernel{voxels},
                            dx, dy, dz, dk, drho, dfr, dfi);
  const auto fr_gpu = dfr.copy_to_host();
  const auto fi_gpu = dfi.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  double err = 0;
  for (int v = 0; v < voxels; ++v) {
    err = std::max(err, rel_err(fr_gpu[v], fr_ref[v], 1e-2));
    err = std::max(err, rel_err(fi_gpu[v], fi_ref[v], 1e-2));
  }
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
