// Ablation: special-function-unit trigonometry in the MRI kernels.
//
// §5.1: "a substantial number of executed operations are trigonometry
// functions; the SFUs execute these much faster than even CPU fast math
// libraries.  This accounts for approximately 30% of the speedup."
// We run MRI-Q with sin/cos on the SFUs versus a software polynomial
// expansion issued on the SPs and report the ratio.
#include <iostream>

#include "apps/mri/mri_q.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const int voxels = 8192, samples = 1024;
  const auto w = MriWorkload::generate(voxels, samples, /*seed=*/21);

  Device dev;
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
  opt.functional = false;  // timing-only; functional equivalence is tested
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>((voxels + 255) / 256));

  const auto with_sfu = launch(dev, grid, block, opt, MriQKernel{voxels, true},
                               dx, dy, dz, dk, dqr, dqi);
  const auto without = launch(dev, grid, block, opt, MriQKernel{voxels, false},
                              dx, dy, dz, dk, dqr, dqi);

  std::cout << "Ablation: SFU trigonometry in MRI-Q (" << voxels
            << " voxels x " << samples << " k-space samples)\n\n";
  TextTable t({"configuration", "time (ms)", "GFLOPS", "sfu instrs/warp",
               "bottleneck"});
  for (const auto& [name, s] :
       {std::pair{"sin/cos on SFU", &with_sfu},
        std::pair{"software sin/cos on SPs", &without}}) {
    t.add_row({name, fixed(s->timing.seconds * 1e3, 3),
               fixed(s->timing.gflops, 2),
               fixed(static_cast<double>(s->trace.total.ops[OpClass::kSfu]) /
                         static_cast<double>(s->trace.num_warps),
                     0),
               std::string(bottleneck_name(s->timing.bottleneck))});
  }
  t.print(std::cout);

  const double ratio = without.timing.seconds / with_sfu.timing.seconds;
  std::cout << "\nSFU speedup contribution: " << fixed(ratio, 2)
            << "x (paper: trigonometry on SFUs accounts for ~30% of MRI's "
               "total speedup,\ni.e. a ~1.3-2x kernel-level factor depending "
               "on the trig fraction)\n";
  return 0;
}
