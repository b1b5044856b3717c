#include "apps/cp/cp.h"

#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

CpWorkload CpWorkload::generate(int grid_dim, int num_atoms, std::uint64_t seed) {
  SplitMix64 rng(seed);
  CpWorkload w;
  w.grid_dim = grid_dim;
  w.slice_z = 4.0f;  // off-plane slice keeps r2 bounded away from zero
  const float extent = w.spacing * static_cast<float>(grid_dim);
  w.atoms.resize(num_atoms);
  for (auto& a : w.atoms) {
    a.x = rng.uniform_f(0.0f, extent);
    a.y = rng.uniform_f(0.0f, extent);
    a.z = rng.uniform_f(-2.0f, 2.0f);
    a.w = rng.uniform_f(-1.0f, 1.0f);  // charge
  }
  return w;
}

void cp_cpu(const CpWorkload& w, std::vector<float>& potential) {
  potential.assign(static_cast<std::size_t>(w.grid_dim) * w.grid_dim, 0.0f);
  for (int iy = 0; iy < w.grid_dim; ++iy) {
    for (int ix = 0; ix < w.grid_dim; ++ix) {
      const float px = static_cast<float>(ix) * w.spacing;
      const float py = static_cast<float>(iy) * w.spacing;
      float v = 0.0f;
      for (const auto& a : w.atoms) {
        const float dx = px - a.x;
        const float dy = py - a.y;
        const float dz = w.slice_z - a.z;
        const float r2 = dx * dx + (dy * dy + dz * dz);
        v = a.w * (1.0f / std::sqrt(r2)) + v;
      }
      potential[static_cast<std::size_t>(iy) * w.grid_dim + ix] = v;
    }
  }
}

AppInfo CpApp::info() const {
  return AppInfo{
      .name = "CP",
      .description = "Coulombic potential grid from point charges",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue (low global access ratio, §5.1)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult CpApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int grid_dim = scale == RunScale::kQuick ? 64 : 256;
  const int num_atoms = scale == RunScale::kQuick ? 128 : 1024;
  const auto w = CpWorkload::generate(grid_dim, num_atoms, /*seed=*/11);

  AppResult r;
  r.info = info();

  // --- CPU baseline ---
  std::vector<float> v_ref;
  const double host_secs = measure_seconds([&] { cp_cpu(w, v_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  // --- GPU port ---
  dev.ledger().reset();
  auto atoms = dev.alloc_constant<Float4>(w.atoms.size());
  atoms.copy_from_host(w.atoms);
  auto out = dev.alloc<float>(static_cast<std::size_t>(grid_dim) * grid_dim);

  LaunchOptions opt;
  opt.regs_per_thread = 10;
  const Dim3 block(16, 16);
  const Dim3 grid(static_cast<unsigned>(grid_dim / 16),
                  static_cast<unsigned>(grid_dim / 16));
  const auto stats = launch(dev, grid, block, opt,
                            CpKernel{grid_dim, w.spacing, w.slice_z}, atoms, out);
  const auto v_gpu = out.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate ---
  double err = 0;
  for (std::size_t i = 0; i < v_ref.size(); ++i)
    err = std::max(err, rel_err(v_gpu[i], v_ref[i], 1e-3));
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
