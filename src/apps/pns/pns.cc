#include "apps/pns/pns.h"

#include "common/measure.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

PnsNet PnsNet::generate(std::uint64_t seed) {
  SplitMix64 rng(seed);
  PnsNet net;
  net.rng_seed = rng.next_u64();
  net.in.resize(kPnsTransitions * kPnsArity);
  net.out.resize(kPnsTransitions * kPnsArity);
  for (int t = 0; t < kPnsTransitions; ++t) {
    for (int k = 0; k < kPnsArity; ++k) {
      // Input places of one transition must be distinct: the kernel's
      // enabledness test checks each place for one token, so a duplicated
      // input would let a single token be consumed twice.
      std::int32_t in;
      do {
        in = static_cast<std::int32_t>(rng.next_below(kPnsPlaces));
      } while (k > 0 &&
               in == net.in[static_cast<std::size_t>(t) * kPnsArity + k - 1]);
      net.in[static_cast<std::size_t>(t) * kPnsArity + k] = in;
      net.out[static_cast<std::size_t>(t) * kPnsArity + k] =
          static_cast<std::int32_t>(rng.next_below(kPnsPlaces));
    }
  }
  net.initial_marking.resize(kPnsPlaces);
  for (auto& m : net.initial_marking)
    m = static_cast<std::int32_t>(rng.next_below(4));
  return net;
}

std::int32_t pns_simulate_cpu(const PnsNet& net, int sim, int steps,
                              std::int32_t* marking_out) {
  std::int32_t marking[kPnsPlaces];
  for (int p = 0; p < kPnsPlaces; ++p) marking[p] = net.initial_marking[p];
  const CounterRng rng(net.rng_seed);
  const std::uint64_t base =
      static_cast<std::uint64_t>(sim) * static_cast<std::uint64_t>(steps);
  std::int32_t fired = 0;
  for (int s = 0; s < steps; ++s) {
    const int t = static_cast<int>(rng.at(base + s) % kPnsTransitions);
    bool enabled = true;
    for (int k = 0; k < kPnsArity; ++k)
      enabled = enabled &&
                marking[net.in[static_cast<std::size_t>(t) * kPnsArity + k]] > 0;
    if (enabled) {
      for (int k = 0; k < kPnsArity; ++k) {
        --marking[net.in[static_cast<std::size_t>(t) * kPnsArity + k]];
        ++marking[net.out[static_cast<std::size_t>(t) * kPnsArity + k]];
      }
      ++fired;
    }
  }
  if (marking_out)
    for (int p = 0; p < kPnsPlaces; ++p) marking_out[p] = marking[p];
  return fired;
}

AppInfo PnsApp::info() const {
  return AppInfo{
      .name = "PNS",
      .description = "replicated stochastic Petri-net simulations, one per "
                     "thread",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "global memory capacity (per-simulation state); "
                          "texture cache for net structure (§5.2, 2.8x)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult PnsApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int num_sims = scale == RunScale::kQuick ? 2048 : 16384;
  const int steps = scale == RunScale::kQuick ? 64 : 256;
  const auto net = PnsNet::generate(/*seed=*/71);

  AppResult r;
  r.info = info();

  // --- CPU baseline: all replicas sequentially ---
  std::vector<std::int32_t> fired_ref(num_sims);
  std::vector<std::int32_t> marking_ref(
      static_cast<std::size_t>(kPnsPlaces) * num_sims);
  std::vector<std::int32_t> tmp(kPnsPlaces);
  const double host_secs = measure_seconds([&] {
    for (int s = 0; s < num_sims; ++s) {
      fired_ref[static_cast<std::size_t>(s)] =
          pns_simulate_cpu(net, s, steps, tmp.data());
      for (int p = 0; p < kPnsPlaces; ++p)
        marking_ref[static_cast<std::size_t>(p) * num_sims + s] = tmp[p];
    }
  });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  // --- GPU port ---
  dev.ledger().reset();
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
  auto d_marking = dev.alloc<std::int32_t>(
      static_cast<std::size_t>(kPnsPlaces) * num_sims);
  auto d_fired = dev.alloc<std::int32_t>(num_sims);

  PnsKernel kernel;
  kernel.num_sims = num_sims;
  kernel.steps = steps;
  kernel.rng_seed = net.rng_seed;
  kernel.table_space = PnsTableSpace::kTexture;

  LaunchOptions opt;
  opt.regs_per_thread = 24;
  const Dim3 block(128);
  const Dim3 grid(static_cast<unsigned>((num_sims + 127) / 128));
  const auto stats = launch(dev, grid, block, opt, kernel, d_init, d_in_g,
                            d_out_g, d_in_t, d_out_t, d_marking, d_fired);
  const auto marking_gpu = d_marking.copy_to_host();
  const auto fired_gpu = d_fired.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate: integer trajectories must match exactly ---
  double err = 0;
  for (int s = 0; s < num_sims; ++s)
    if (fired_gpu[static_cast<std::size_t>(s)] !=
        fired_ref[static_cast<std::size_t>(s)])
      err = 1.0;
  for (std::size_t i = 0; i < marking_ref.size(); ++i)
    if (marking_gpu[i] != marking_ref[i]) err = 1.0;
  finish_validation(r, err, 0.0);
  return r;
}

}  // namespace g80::apps
