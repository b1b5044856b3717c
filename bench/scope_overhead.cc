// g80scope overhead and conservation check.
//
// The scope's contract (scope/scope.h) has two halves, and this bench pins
// both outside the unit-test tier at a realistic kernel size:
//
//   1. Zero perturbation: attaching a scope::Session to a launch changes
//      nothing observable — kernel outputs and every modeled statistic are
//      bit-identical with the scope on and off, because the series is
//      derived after the passes complete.
//   2. Conservation: summing any extensive series over all SM buckets
//      reproduces the launch total the aggregate model implies, the site
//      attribution table reconciles with the same totals, and the scope's
//      instruction/DRAM totals agree with g80prof's extrapolated counters
//      and the timing model's total_dram_bytes.
//
// Exits non-zero if either half fails, so scripts/run_benches.sh doubles as
// a correctness gate for the telemetry layer.
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "apps/matmul/matmul.h"
#include "bench/harness.h"
#include "common/str.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "prof/counters.h"
#include "scope/session.h"

using namespace g80;
using namespace g80::apps;

namespace {

double rel_err(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

double series_sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "scope_overhead");

  const int n = 256, tile = 16;
  const auto wl = MatmulWorkload::generate(n, h.seed());

  Device dev;
  auto da = dev.alloc<float>(wl.a.size());
  auto db = dev.alloc<float>(wl.b.size());
  auto dc = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  da.copy_from_host(wl.a);
  db.copy_from_host(wl.b);

  const MatmulTiledKernel kernel{n, tile, /*unrolled=*/true};
  double wall_off = 0, wall_on = 0;
  const auto run = [&](scope::Session* sink, std::vector<float>* out,
                       double* wall) {
    LaunchOptions opt;
    opt.regs_per_thread = 9;
    const double t0 = now_seconds();
    const LaunchStats s = launch(dev, Dim3(n / tile, n / tile),
                                 Dim3(tile, tile), opt, kernel, da, db, dc);
    if (sink != nullptr) sink->record_launch("matmul", dev.spec(), s);
    *wall = now_seconds() - t0;
    *out = dc.copy_to_host();
    return s;
  };

  std::vector<float> out_off, out_on;
  const LaunchStats off = run(nullptr, &out_off, &wall_off);
  scope::Session session;
  const LaunchStats on = run(&session, &out_on, &wall_on);

  // ---- Half 1: bit-identical with the scope attached ----
  const bool outputs_identical =
      out_off.size() == out_on.size() &&
      std::memcmp(out_off.data(), out_on.data(),
                  out_off.size() * sizeof(float)) == 0;
  const bool timing_identical =
      off.timing.seconds == on.timing.seconds &&
      off.timing.kernel_cycles == on.timing.kernel_cycles &&
      off.timing.gflops == on.timing.gflops;

  // ---- Half 2: conservation ----
  const auto launches = session.launches();
  double max_residual = launches.empty() ? 1.0 : 0.0;
  const auto check = [&](const char* what, double got, double want) {
    const double r = rel_err(got, want);
    max_residual = std::max(max_residual, r);
    h.human() << "  " << what << ": got " << fixed(got, 3) << ", want "
              << fixed(want, 3) << " (rel err " << r << ")\n";
  };

  if (!launches.empty()) {
    const scope::KernelScope& sc = launches.front().scope;
    const scope::ScopeTotals& tot = sc.totals;
    double issue = 0, ser = 0, unc = 0, mem = 0, bar = 0, ins = 0, dram = 0;
    for (const auto& sm : sc.sms) {
      issue += series_sum(sm.issue_cycles);
      ser += series_sum(sm.serialization_cycles);
      unc += series_sum(sm.uncoalesced_cycles);
      mem += series_sum(sm.mem_stall_cycles);
      bar += series_sum(sm.barrier_cycles);
      ins += series_sum(sm.instructions);
      dram += series_sum(sm.dram_bytes);
    }
    h.human() << "conservation (bucket sums vs aggregate totals):\n";
    check("issue_cycles", issue, tot.issue_cycles);
    check("serialization_cycles", ser, tot.serialization_cycles);
    check("uncoalesced_cycles", unc, tot.uncoalesced_cycles);
    check("mem_stall_cycles", mem, tot.mem_stall_cycles);
    check("barrier_cycles", bar, tot.barrier_cycles);
    check("instructions", ins, tot.instructions);
    check("dram_bytes", dram, tot.dram_bytes);
    check("device_dram_bytes", series_sum(sc.device_dram_bytes),
          tot.dram_bytes);

    // Site attribution reconciles with the same totals.
    double s_unc = 0, s_ser = 0, s_bar = 0, s_mem = 0;
    for (const auto& s : sc.sites) {
      s_unc += s.uncoalesced_cycles;
      s_ser += s.serialization_cycles;
      s_bar += s.barrier_cycles;
      s_mem += s.mem_stall_cycles;
    }
    h.human() << "site table vs totals:\n";
    check("sites.uncoalesced_cycles", s_unc, tot.uncoalesced_cycles);
    check("sites.serialization_cycles", s_ser, tot.serialization_cycles);
    check("sites.barrier_cycles", s_bar, tot.barrier_cycles);
    check("sites.mem_stall_cycles", s_mem, tot.mem_stall_cycles);

    // Cross-model agreement: g80prof's extrapolated counters and the timing
    // model's DRAM total describe the same launch.
    const prof::KernelCounters c = prof::derive_counters(dev.spec(), on);
    h.human() << "cross-model (g80prof counters, timing model):\n";
    check("prof.instructions x grid_scale",
          static_cast<double>(c.instructions) * c.grid_scale(),
          tot.instructions);
    check("prof.dram_bytes x grid_scale",
          static_cast<double>(c.dram_bytes) * c.grid_scale(), tot.dram_bytes);
    check("timing.total_dram_bytes", on.timing.total_dram_bytes,
          tot.dram_bytes);

    auto& r = h.result("matmul_tiled_unrolled_256");
    r.set("bit_identical_outputs", outputs_identical ? 1 : 0);
    r.set("bit_identical_timing", timing_identical ? 1 : 0);
    r.set("max_conservation_residual", max_residual);
    r.set("modeled_gflops", on.timing.gflops);
    r.set("num_buckets", sc.num_buckets);
    r.set("num_sites", static_cast<double>(sc.sites.size()));
    r.set("horizon_cycles", sc.horizon_cycles);
    // Wall-clock overhead of attaching the scope (wall_ metrics are context
    // only — excluded from baseline regression).
    r.set("wall_seconds_off", wall_off);
    r.set("wall_seconds_on", wall_on);
    r.set("wall_overhead_ratio", wall_off > 0 ? wall_on / wall_off : 0.0);
  }

  const bool ok =
      outputs_identical && timing_identical && max_residual < 1e-9;
  h.human() << "\noutputs bit-identical: " << (outputs_identical ? "yes" : "NO")
            << "; timing bit-identical: " << (timing_identical ? "yes" : "NO")
            << "; max conservation residual: " << max_residual << " => "
            << (ok ? "PASS" : "FAIL") << "\n";

  const int rc = h.finish(dev.spec());
  return ok ? rc : 1;
}
