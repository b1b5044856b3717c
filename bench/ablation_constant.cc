// Ablation: CP's atom list in constant memory vs plain global memory.
//
// CP reads the same atom record in every thread of a half-warp — the ideal
// constant-cache broadcast (Table 1 / §5.2 "its use is straightforward when
// ... values are reused").  Serving the same loop from global memory turns
// each iteration into a long-latency global access that the warp must hide.
#include <iostream>

#include "apps/cp/cp.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const int grid_dim = 256, num_atoms = 1024;
  const auto w = CpWorkload::generate(grid_dim, num_atoms, /*seed=*/11);

  Device dev;
  auto atoms_c = dev.alloc_constant<Float4>(w.atoms.size());
  atoms_c.copy_from_host(w.atoms);
  auto atoms_g = dev.alloc<Float4>(w.atoms.size());
  atoms_g.copy_from_host(w.atoms);
  auto out = dev.alloc<float>(static_cast<std::size_t>(grid_dim) * grid_dim);

  LaunchOptions opt;
  opt.regs_per_thread = 10;
  opt.functional = false;
  const Dim3 block(16, 16);
  const Dim3 grid(grid_dim / 16, grid_dim / 16);
  const CpKernel k{grid_dim, w.spacing, w.slice_z};

  const auto with_const = launch(dev, grid, block, opt, k, atoms_c, out);
  const auto with_global = launch(dev, grid, block, opt, k, atoms_g, out);

  std::cout << "Ablation: CP atom table placement (" << grid_dim << "x"
            << grid_dim << " grid, " << num_atoms << " atoms)\n\n";
  TextTable t({"atom table", "time (ms)", "GFLOPS", "global insts/warp",
               "mem:compute", "bottleneck"});
  for (const auto& [name, s] :
       {std::pair{"constant memory (broadcast)", &with_const},
        std::pair{"global memory", &with_global}}) {
    t.add_row({name, fixed(s->timing.seconds * 1e3, 3),
               fixed(s->timing.gflops, 2),
               fixed(s->trace.mean_global_instructions(), 0),
               fixed(s->timing.mem_to_compute_ratio, 2),
               std::string(bottleneck_name(s->timing.bottleneck))});
  }
  t.print(std::cout);
  std::cout << "\nconstant-cache speedup: "
            << fixed(with_global.timing.seconds / with_const.timing.seconds, 2)
            << "x — the suite's compute-bound kernels (CP, MRI, RPES) all "
               "depend on this placement\n";
  return 0;
}
