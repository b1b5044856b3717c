// Portability example (paper principle 4): run the same kernels, untouched,
// across GeForce 8800 family members with different SM counts and clocks,
// and watch compute-bound kernels scale while bandwidth-bound ones track the
// memory system instead.
#include <iostream>

#include "apps/saxpy/saxpy.h"
#include "apps/matmul/matmul.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  std::cout << "Same binaries across the GeForce 8800 family\n\n";
  TextTable t({"device", "SMs", "GHz", "GB/s", "matmul GFLOPS (compute)",
               "saxpy GB/s (bandwidth)"});

  for (const auto& spec :
       {DeviceSpec::geforce_8800_gts(), DeviceSpec::geforce_8800_gtx(),
        DeviceSpec::geforce_8800_ultra()}) {
    Device dev(spec);

    // Compute-bound: 1024x1024 unrolled matmul.
    const int n = 1024;
    auto da = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    auto db = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    auto dc = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    const auto mm = run_matmul(dev, {MatmulVariant::kTiledUnrolled, 16}, n, da,
                               db, dc, /*functional=*/false);

    // Bandwidth-bound: 4M-element SAXPY.
    const std::size_t len = 1u << 22;
    auto x = dev.alloc<float>(len);
    auto y = dev.alloc<float>(len);
    auto out = dev.alloc<float>(len);
    LaunchOptions opt;
    opt.regs_per_thread = 5;
    opt.functional = false;
    const auto sx = launch(dev, Dim3(static_cast<unsigned>(len / 256)),
                           Dim3(256), opt,
                           SaxpyKernel{2.0f, static_cast<int>(len)}, x, y, out);

    t.add_row({spec.name, cat(spec.num_sms), fixed(spec.core_clock_ghz, 2),
               fixed(spec.dram_bandwidth_gbs, 1), fixed(mm.timing.gflops, 1),
               fixed(sx.timing.dram_gbs, 1)});
  }
  t.print(std::cout);
  std::cout << "\nmatmul scales with SMs x clock; saxpy scales with memory "
               "bandwidth — knowing which\nregime a kernel is in is the "
               "paper's central diagnostic skill\n";
  return 0;
}
