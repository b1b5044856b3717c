// SAXPY (y = a*x + y): the suite's streaming kernel.
//
// Paper Table 2/3: trivially parallel, one FP multiply-add per two loads and
// a store — the highest memory-to-compute ratio in the suite.  The paper
// reports it saturates memory bandwidth despite having (with FDTD) the most
// simultaneously active threads; our port reproduces that bottleneck class.
#pragma once

#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

struct SaxpyWorkload {
  float a = 0;
  std::vector<float> x, y;

  static SaxpyWorkload generate(std::size_t n, std::uint64_t seed);
};

// CPU reference: single-thread scalar loop (out-of-place, out = a*x + y:
// retries and sanitized launches rerun blocks, so they must be idempotent).
void saxpy_cpu(float a, const std::vector<float>& x,
               const std::vector<float>& y, std::vector<float>& out);

struct SaxpyKernel {
  float a = 0;
  int n = 0;

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& x, DeviceBuffer<float>& y,
                  DeviceBuffer<float>& out) const {
    auto X = ctx.global(x);
    auto Y = ctx.global(y);
    auto Out = ctx.global(out);
    ctx.ialu(2);  // i = blockIdx.x * blockDim.x + threadIdx.x
    const int i = ctx.global_thread_x();
    if (ctx.branch(i < n)) {
      Out.st(i, ctx.mad(a, X.ld(i), Y.ld(i)));
    }
  }
};

class SaxpyApp : public App {
 public:
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale) const override;
};

}  // namespace g80::apps
