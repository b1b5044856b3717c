// Domain example: the MRI reconstruction front-end (the paper's highest
// speedup pair).  Generates a synthetic non-Cartesian k-space acquisition,
// computes Q and F^H d on the simulated GPU, validates against the CPU
// reference, and prints the performance story — including the SFU
// contribution the paper quantifies at ~30%.
#include <iostream>

#include "apps/mri/mri_fhd.h"
#include "apps/mri/mri_q.h"
#include "common/stats.h"
#include "common/str.h"
#include "common/timer.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const int voxels = 4096, samples = 512;
  std::cout << "MRI reconstruction front-end: " << voxels << " voxels, "
            << samples << " k-space samples\n\n";
  const auto w = MriWorkload::generate(voxels, samples, 2026);

  // --- CPU reference ---
  Timer cpu_timer;
  std::vector<float> qr_ref, qi_ref, fr_ref, fi_ref;
  mri_q_cpu(w, qr_ref, qi_ref);
  mri_fhd_cpu(w, fr_ref, fi_ref);
  const double cpu_secs = cpu_timer.seconds();

  // --- GPU port ---
  Device dev;
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
  auto dqr = dev.alloc<float>(voxels), dqi = dev.alloc<float>(voxels);
  auto dfr = dev.alloc<float>(voxels), dfi = dev.alloc<float>(voxels);

  LaunchOptions opt;
  opt.regs_per_thread = 11;
  const Dim3 block(256), grid(voxels / 256);
  const auto q_stats = launch(dev, grid, block, opt, MriQKernel{voxels, true},
                              dx, dy, dz, dk, dqr, dqi);
  const auto f_stats = launch(dev, grid, block, opt, MriFhdKernel{voxels},
                              dx, dy, dz, dk, drho, dfr, dfi);

  // --- Validate ---
  const auto qr = dqr.copy_to_host();
  const auto fr = dfr.copy_to_host();
  double err = 0;
  for (int v = 0; v < voxels; ++v) {
    err = std::max(err, rel_err(qr[v], qr_ref[v], 1e-2));
    err = std::max(err, rel_err(fr[v], fr_ref[v], 1e-2));
  }

  std::cout << "validation:   max rel err " << err << (err < 1e-4 ? "  (ok)\n" : "  (FAIL)\n")
            << "CPU (host):   " << fixed(cpu_secs * 1e3, 1) << " ms for Q + FHd\n"
            << "GPU Q:        " << fixed(q_stats.timing.seconds * 1e3, 3)
            << " ms at " << fixed(q_stats.timing.gflops, 1) << " GFLOPS ("
            << bottleneck_name(q_stats.timing.bottleneck) << ")\n"
            << "GPU FHd:      " << fixed(f_stats.timing.seconds * 1e3, 3)
            << " ms at " << fixed(f_stats.timing.gflops, 1) << " GFLOPS\n"
            << "transfers:    " << fixed(dev.ledger().seconds(dev.spec()) * 1e3, 3)
            << " ms over PCIe\n\n";

  const double sfu_per_warp =
      static_cast<double>(q_stats.trace.total.ops[OpClass::kSfu]) /
      static_cast<double>(q_stats.trace.num_warps);
  std::cout << "the Q kernel issues " << fixed(sfu_per_warp, 0)
            << " SFU (sin/cos) instructions per warp — the paper credits the "
               "SFUs with ~30%\nof MRI's overall speedup; run "
               "./build/bench/ablation_sfu to reproduce that split\n";
  return 0;
}
