// Quickstart: write a kernel, launch it on the simulated GeForce 8800 GTX,
// and read the performance report.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <vector>

#include "common/str.h"
#include "core/report.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"

using namespace g80;

// A kernel is a struct with a templated operator(): the same source runs
// functionally (full grid) and instrumented (sampled blocks, feeds the
// timing model).  Arithmetic goes through ctx so the tracer can count
// PTX-level instruction classes the way the paper does in §4.1.
struct VectorScaleAdd {
  float alpha;
  int n;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& x,
                  DeviceBuffer<float>& out) const {
    auto X = ctx.global(x);
    auto Out = ctx.global(out);
    ctx.ialu(2);  // index computation
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) {
      Out.st(i, ctx.mad(alpha, X.ld(i), 1.0f));
    }
  }
};

int main() {
  // 1. Create the device (the paper's GeForce 8800 GTX by default).
  Device dev;
  std::cout << "device: " << dev.spec().name << ", "
            << dev.spec().num_sms << " SMs, peak "
            << fixed(dev.spec().peak_mad_gflops(), 1) << " GFLOPS, "
            << fixed(dev.spec().dram_bandwidth_gbs, 1) << " GB/s\n\n";

  // 2. Allocate device memory and copy inputs (transfers are logged and
  //    costed like PCIe copies).
  const int n = 1 << 20;
  std::vector<float> host_x(n, 2.0f);
  auto x = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  x.copy_from_host(host_x);

  // 3. Launch: grid/block geometry exactly like CUDA.
  LaunchOptions opt;
  opt.regs_per_thread = 5;
  const auto stats = launch(dev, Dim3(n / 256), Dim3(256), opt,
                            VectorScaleAdd{3.0f, n}, x, out);

  // 4. Check results.
  const auto result = out.copy_to_host();
  std::cout << "out[0] = " << result[0] << " (expect 7)\n\n";

  // 5. Read the performance report — occupancy, instruction mix, memory
  //    behaviour, the timing model's floors, and the advisor's suggestions.
  std::cout << launch_report(dev.spec(), stats);
  return 0;
}
