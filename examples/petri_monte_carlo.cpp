// Domain example: Monte-Carlo analysis of a stochastic Petri net — the
// paper's PNS pattern (one independent simulation per thread, no
// inter-thread communication, read-only structure tables in texture
// memory).  Runs thousands of replicas on the simulated GPU, checks them
// bit-exactly against the CPU (counter-based RNG makes the trajectories a
// pure function of the replica index), and reports throughput statistics.
#include <iostream>

#include "apps/pns/pns.h"
#include "common/stats.h"
#include "common/str.h"
#include "core/report.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const int num_sims = 8192, steps = 256;
  const auto net = PnsNet::generate(/*seed=*/2026);
  std::cout << "Stochastic Petri net: " << kPnsPlaces << " places, "
            << kPnsTransitions << " transitions; " << num_sims
            << " replicas x " << steps << " steps\n\n";

  // --- GPU run ---
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

  PnsKernel kernel;
  kernel.num_sims = num_sims;
  kernel.steps = steps;
  kernel.rng_seed = net.rng_seed;

  LaunchOptions opt;
  opt.regs_per_thread = 24;
  const auto stats = launch(dev, Dim3(num_sims / 128), Dim3(128), opt, kernel,
                            d_init, d_in_g, d_out_g, d_in_t, d_out_t,
                            d_marking, d_fired);
  const auto fired = d_fired.copy_to_host();

  // --- Spot-check determinism against the CPU reference ---
  int mismatches = 0;
  std::vector<std::int32_t> scratch(kPnsPlaces);
  for (int sim = 0; sim < num_sims; sim += 512) {
    if (pns_simulate_cpu(net, sim, steps, scratch.data()) !=
        fired[static_cast<std::size_t>(sim)])
      ++mismatches;
  }

  // --- Monte-Carlo statistics ---
  RunningStat firing;
  for (int s = 0; s < num_sims; ++s)
    firing.add(static_cast<double>(fired[static_cast<std::size_t>(s)]));

  std::cout << "replica spot-check vs CPU: "
            << (mismatches == 0 ? "bit-exact" : "MISMATCH") << "\n"
            << "fired transitions per replica: mean " << fixed(firing.mean(), 1)
            << ", stddev " << fixed(firing.stddev(), 1) << ", range ["
            << fixed(firing.min(), 0) << ", " << fixed(firing.max(), 0)
            << "] of " << steps << " attempts\n"
            << "simulated GPU: " << launch_summary(dev.spec(), stats) << "\n"
            << "replica throughput: "
            << fixed(num_sims / stats.timing.seconds / 1e6, 2)
            << " M replicas/s\n\n"
            << "(the paper's PNS: per-thread state in global memory bounds "
               "the replica count — Table 3's\ncapacity bottleneck; the "
               "structure tables ride the texture cache, §5.2)\n";
  return mismatches == 0 ? 0 : 1;
}
