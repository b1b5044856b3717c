// g80prof zero-perturbation check plus artifact demo, on the standard
// harness (emits the g80bench-result document run_benches.sh archives and
// check_bench_regression.py diffs against bench/baselines/).
//
// Part 1 asserts the profiler's core contract: running the same matmul with
// and without a Profiler attached produces BIT-IDENTICAL output matrices
// (the counters are derived from the trace pass the launch performs anyway,
// so the functional pass cannot observe the profiler).  The bench exits
// non-zero if a single bit differs.  Both runs are timed, so the result row
// also records what attaching the profiler costs in wall clock (wall_
// metrics: context only, excluded from regression), alongside a sample of
// the deterministic counters the baseline does pin.
//
// Part 2 runs a profiled two-stream g80rt session and writes both g80prof
// artifacts: the per-kernel counter report through human() and the Chrome
// trace-event file `prof_overhead_trace.json` (load it at chrome://tracing
// — docs/profiling.md walks through the workflow).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>

#include "apps/matmul/matmul.h"
#include "bench/harness.h"
#include "common/error.h"
#include "common/str.h"
#include "core/report.h"
#include "cudalite/device.h"
#include "prof/chrome_trace.h"
#include "prof/counters.h"
#include "prof/profiler.h"
#include "rt/runtime.h"

using namespace g80;
using namespace g80::apps;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleKernel {
  // Out-of-place: retries and sanitized launches rerun blocks, so kernels
  // must be idempotent at block granularity.
  float factor = 1.0f;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(i, ctx.mul(In.ld(i), factor));
  }
};

std::vector<float> run_once(Device& dev, const MatmulWorkload& w,
                            prof::Profiler* profiler, double* wall) {
  auto da = dev.alloc<float>(w.a.size());
  auto db = dev.alloc<float>(w.b.size());
  auto dc = dev.alloc<float>(w.a.size());
  da.copy_from_host(w.a);
  db.copy_from_host(w.b);
  const MatmulConfig cfg{MatmulVariant::kTiledUnrolled, 16};
  const double t0 = now_seconds();
  run_matmul(dev, cfg, w.n, da, db, dc, /*functional=*/true, profiler);
  *wall = now_seconds() - t0;
  return dc.copy_to_host();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "prof_overhead");
  Device dev;

  // --- Part 1: bit-identical outputs with profiling on vs off ---
  const int n = 256;
  const auto w = MatmulWorkload::generate(n, h.seed());
  prof::Profiler profiler;
  double wall_plain = 0, wall_profiled = 0;
  const auto plain = run_once(dev, w, nullptr, &wall_plain);
  const auto profiled = run_once(dev, w, &profiler, &wall_profiled);
  const bool identical =
      plain.size() == profiled.size() &&
      // memcmp, not an epsilon: the contract is bit-identity, not closeness.
      std::memcmp(plain.data(), profiled.data(),
                  plain.size() * sizeof(float)) == 0;
  h.human() << "profiling on/off outputs bit-identical over " << n << "x" << n
            << " matmul (" << plain.size() << " floats): "
            << (identical ? "yes" : "NO") << "\n";
  h.human() << "  plain " << fixed(wall_plain, 4) << " s, profiled "
            << fixed(wall_profiled, 4) << " s ("
            << fixed(wall_plain > 0 ? wall_profiled / wall_plain : 0.0, 3)
            << "x)\n\n";
  {
    auto& r = h.result("matmul_tiled_unrolled_256");
    r.set("bit_identical", identical ? 1 : 0);
    r.set("wall_seconds_plain", wall_plain);
    r.set("wall_seconds_profiled", wall_profiled);
    r.set("wall_overhead_ratio",
          wall_plain > 0 ? wall_profiled / wall_plain : 0.0);
    // A sample of the deterministic counters, so the baseline pins the
    // profiler's arithmetic as well as its invisibility.
    const auto ks = profiler.kernels();
    if (!ks.empty()) {
      const prof::KernelCounters& c = ks.front().counters;
      r.set("gld_coalesced", static_cast<double>(c.gld_coalesced));
      r.set("gst_coalesced", static_cast<double>(c.gst_coalesced));
      r.set("warp_serialize", static_cast<double>(c.warp_serialize));
      r.set("instructions", static_cast<double>(c.instructions));
      r.set("blocks_total", static_cast<double>(c.blocks_total));
    }
  }

  // --- Part 2: a profiled runtime session and its two artifacts ---
  prof::Profiler session;
  rt::RuntimeOptions ropt;
  ropt.profiler = &session;
  rt::Runtime r(dev, ropt);

  const int m = 1 << 14;
  std::vector<float> host(m, 1.0f);
  auto d0 = dev.alloc<float>(m);
  auto d1 = dev.alloc<float>(m);
  auto o0 = dev.alloc<float>(m);
  auto o1 = dev.alloc<float>(m);
  rt::Stream s0 = r.stream_create();
  rt::Stream s1 = r.stream_create();

  LaunchOptions opt;
  opt.kernel_name = "scale2";
  r.memcpy_h2d_async(s0, d0, host);
  r.launch_async(s0, Dim3(m / 256), Dim3(256), opt, nullptr,
                 ScaleKernel{2.0f}, d0, o0);
  opt.kernel_name = "scale3";
  r.memcpy_h2d_async(s1, d1, host);
  r.launch_async(s1, Dim3(m / 256), Dim3(256), opt, nullptr,
                 ScaleKernel{3.0f}, d1, o1);
  std::vector<float> out0, out1;
  r.memcpy_d2h_async(s0, out0, o0);
  r.memcpy_d2h_async(s1, out1, o1);
  r.device_synchronize();

  h.human() << profile_report(dev.spec(), session) << "\n"
            << "g80prof JSON report:\n"
            << profile_json(dev.spec(), session) << "\n\n";
  {
    auto& row = h.result("rt_session");
    row.set("kernels_profiled", static_cast<double>(session.kernels().size()));
    row.set("launches", static_cast<double>(session.total_launches()));
  }

  const std::string trace = prof::chrome_trace_json(r.timeline_snapshot());
  std::ofstream("prof_overhead_trace.json") << trace;
  h.human() << "wrote prof_overhead_trace.json (" << trace.size()
            << " bytes) — load at chrome://tracing\n";

  r.stream_destroy(s0);
  r.stream_destroy(s1);
  const int rc = h.finish(dev.spec());
  if (!identical) {
    std::cerr << "FAIL: profiled run diverged from unprofiled run\n";
    return 1;
  }
  return rc;
}
