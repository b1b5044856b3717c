// Ablation: the same CUDA program across GeForce 8800 family members,
// plus the simulator's own interpreter-throughput ablation.
//
// Paper principle 4: the absence of global inter-block synchronization
// "enables the execution of the same CUDA program across processor family
// members with a varying number of cores, and makes the hardware scalable."
// We run the unrolled matmul unchanged on the GTS (12 SMs), GTX (16 SMs)
// and Ultra (16 SMs, higher clocks) models.
//
// The second table ablates the *simulator's* execution engine on one fixed
// workload: traced (4 sampled blocks) vs untraced (sample_blocks = 0), and
// worker count, on the build's fiber engine (exec/fiber.h).  It shows where the interpreter's wall time actually goes; the gated
// scalability curve with a checked-in baseline lives in bench/rt_throughput
// (docs/performance.md).
#include <chrono>
#include <iostream>

#include "apps/matmul/matmul.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"

using namespace g80;
using namespace g80::apps;

namespace {

// Wall time of one interpreted matmul launch under the given engine knobs.
double interp_seconds(int n, int sample_blocks, int workers) {
  Device dev;
  auto a = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  auto b = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  const auto wl = MatmulWorkload::generate(n, 42);
  a.copy_from_host(wl.a);
  b.copy_from_host(wl.b);

  const int tile = 16;
  LaunchOptions opt;
  opt.regs_per_thread = 9;
  opt.sample_blocks = sample_blocks;
  WorkerPool pool(workers);
  if (workers > 1) opt.pool = &pool;

  const auto t0 = std::chrono::steady_clock::now();
  launch(dev, Dim3(static_cast<unsigned>(n / tile),
                   static_cast<unsigned>(n / tile)),
         Dim3(static_cast<unsigned>(tile), static_cast<unsigned>(tile)), opt,
         MatmulTiledKernel{n, tile, /*unrolled=*/true}, a, b, c);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const int n = 4096;
  std::cout << "Ablation: unchanged matmul binary across the GeForce 8800 "
               "family, " << n << "x" << n << "\n\n";

  TextTable t({"device", "SMs", "clock GHz", "DRAM GB/s", "peak GFLOPS",
               "achieved GFLOPS", "% of peak"});
  for (const auto& spec :
       {DeviceSpec::geforce_8800_gts(), DeviceSpec::geforce_8800_gtx(),
        DeviceSpec::geforce_8800_ultra()}) {
    Device dev(spec);
    auto da = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    auto db = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    auto dc = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    const auto stats = run_matmul(dev, {MatmulVariant::kTiledUnrolled, 16}, n,
                                  da, db, dc, /*functional=*/false);
    t.add_row({spec.name, cat(spec.num_sms), fixed(spec.core_clock_ghz, 2),
               fixed(spec.dram_bandwidth_gbs, 1),
               fixed(spec.peak_mad_gflops(), 1),
               fixed(stats.timing.gflops, 2),
               fixed(100 * stats.timing.gflops / spec.peak_mad_gflops(), 1)});
  }
  t.print(std::cout);
  std::cout << "\nthe issue-bound kernel scales with SMs x clock, untouched "
               "(§1 principle 4)\n";

  // ---- Simulator interpreter-throughput ablation ------------------------
  const int in = 256;
  std::cout << "\nInterpreter ablation: one " << in << "x" << in
            << " tiled matmul launch, host wall time\n\n";
  struct Config {
    const char* name;
    int sample_blocks;
    int workers;
  };
  const Config configs[] = {
      {"traced,   1 worker", 4, 1},
      {"untraced, 1 worker", 0, 1},
      {"untraced, 2 workers", 0, 2},
      {"untraced, 4 workers", 0, 4},
  };
  TextTable it({"engine configuration", "wall ms", "vs traced w1"});
  const double base = interp_seconds(in, 4, 1);
  for (const auto& cfg : configs) {
    const double s = cfg.sample_blocks == 4 && cfg.workers == 1
                         ? base
                         : interp_seconds(in, cfg.sample_blocks, cfg.workers);
    it.add_row({cfg.name, fixed(1e3 * s, 1), fixed(base / s, 2) + "x"});
  }
  it.print(std::cout);
  std::cout << "\nwall numbers are host-dependent; the regression-gated curve "
               "is BENCH_rt_throughput.json\n";
  return 0;
}
