// Ablation: texture cache for PNS's read-only net-structure tables.
//
// §5.2: irregularly-indexed read-only data moved into texture memory —
// "kernel performance improves by 2.8X over global-only access by the use
// of texture memory" (even though the smaller thread count exposed texture
// latency).  We run the PNS kernel with the transition tables in texture
// space versus plain global memory.
#include <iostream>

#include "apps/pns/pns.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const int num_sims = 16384, steps = 256;
  const auto net = PnsNet::generate(/*seed=*/71);

  Device dev;
  auto d_init = dev.alloc<std::int32_t>(net.initial_marking.size());
  d_init.copy_from_host(net.initial_marking);
  auto d_in_g = dev.alloc<std::int32_t>(net.in.size());
  auto d_out_g = dev.alloc<std::int32_t>(net.out.size());
  d_in_g.copy_from_host(net.in);
  d_out_g.copy_from_host(net.out);
  auto d_in_t = dev.alloc_texture<std::int32_t>(net.in.size());
  auto d_out_t = dev.alloc_texture<std::int32_t>(net.out.size());
  d_in_t.copy_from_host(net.in);
  d_out_t.copy_from_host(net.out);
  auto d_marking =
      dev.alloc<std::int32_t>(static_cast<std::size_t>(kPnsPlaces) * num_sims);
  auto d_fired = dev.alloc<std::int32_t>(num_sims);

  LaunchOptions opt;
  opt.regs_per_thread = 24;
  opt.functional = false;
  const Dim3 block(128);
  const Dim3 grid(static_cast<unsigned>((num_sims + 127) / 128));

  PnsKernel kernel;
  kernel.num_sims = num_sims;
  kernel.steps = steps;
  kernel.rng_seed = net.rng_seed;

  kernel.table_space = PnsTableSpace::kTexture;
  const auto tex = launch(dev, grid, block, opt, kernel, d_init, d_in_g,
                          d_out_g, d_in_t, d_out_t, d_marking, d_fired);
  kernel.table_space = PnsTableSpace::kGlobal;
  const auto glob = launch(dev, grid, block, opt, kernel, d_init, d_in_g,
                           d_out_g, d_in_t, d_out_t, d_marking, d_fired);

  std::cout << "Ablation: PNS net-structure tables in texture vs global "
               "memory (" << num_sims << " sims x " << steps << " steps)\n\n";
  TextTable t({"table space", "time (ms)", "tex hit %", "DRAM GB/s",
               "txn/mem-inst", "bottleneck"});
  const auto hitrate = [](const LaunchStats& s) {
    const auto h = s.trace.total.texture_hits;
    const auto m = s.trace.total.texture_misses;
    return h + m == 0 ? 0.0
                      : 100.0 * static_cast<double>(h) /
                            static_cast<double>(h + m);
  };
  t.add_row({"texture (cached)", fixed(tex.timing.seconds * 1e3, 3),
             fixed(hitrate(tex), 1), fixed(tex.timing.dram_gbs, 1),
             fixed(tex.trace.transactions_per_mem_inst(), 2),
             std::string(bottleneck_name(tex.timing.bottleneck))});
  t.add_row({"global (uncached)", fixed(glob.timing.seconds * 1e3, 3),
             fixed(hitrate(glob), 1), fixed(glob.timing.dram_gbs, 1),
             fixed(glob.trace.transactions_per_mem_inst(), 2),
             std::string(bottleneck_name(glob.timing.bottleneck))});
  t.print(std::cout);

  std::cout << "\nspeedup from texture cache: "
            << fixed(glob.timing.seconds / tex.timing.seconds, 2)
            << "x (paper: 2.8x for PNS, §5.2)\n";
  return 0;
}
