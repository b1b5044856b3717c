#include "apps/saxpy/saxpy.h"

#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

SaxpyWorkload SaxpyWorkload::generate(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  SaxpyWorkload w;
  w.a = rng.uniform_f(0.5f, 2.0f);
  w.x.resize(n);
  w.y.resize(n);
  for (auto& v : w.x) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : w.y) v = rng.uniform_f(-1.0f, 1.0f);
  return w;
}

void saxpy_cpu(float a, const std::vector<float>& x,
               const std::vector<float>& y, std::vector<float>& out) {
  out.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = a * x[i] + y[i];
}

AppInfo SaxpyApp::info() const {
  return AppInfo{
      .name = "SAXPY",
      .description = "single-precision a*X+Y over large vectors",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "global memory bandwidth (high memory-to-compute "
                          "ratio, Table 3 / §5.1)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult SaxpyApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const std::size_t n = scale == RunScale::kQuick ? (1u << 13) : (1u << 22);
  const auto w = SaxpyWorkload::generate(n, /*seed=*/42);

  AppResult r;
  r.info = info();

  // --- CPU baseline ---
  std::vector<float> y_ref;
  const double host_secs =
      measure_seconds([&] { saxpy_cpu(w.a, w.x, w.y, y_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;  // the whole application is the kernel

  // --- GPU port ---
  dev.ledger().reset();
  auto dx = dev.alloc<float>(n);
  auto dy = dev.alloc<float>(n);
  auto dout = dev.alloc<float>(n);
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);

  LaunchOptions opt;
  opt.regs_per_thread = 5;
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>((n + block.x - 1) / block.x));
  const auto stats = launch(dev, grid, block, opt,
                            SaxpyKernel{w.a, static_cast<int>(n)}, dx, dy, dout);
  const auto y_gpu = dout.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate ---
  double err = 0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, rel_err(y_gpu[i], y_ref[i]));
  finish_validation(r, err, 1e-6);
  return r;
}

}  // namespace g80::apps
