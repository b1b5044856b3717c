// Golden digests of the trace pass (tests/trace_digest.h): everything a
// traced launch feeds downstream — the full TraceSummary, the modeled time,
// every derived g80prof counter and every g80scope series — is pinned for
// the recorder-regime launches in trace_cases.h and for all 13 suite
// applications at quick scale.
//
// The values were recorded when the trace pass still had two recorders
// (the per-lane AoS recorder and the batched arena) and both produced them;
// so these tests keep the arena held to the per-lane reference semantics.
// Each launch also asserts which collector path it covers: regrouped_streams
// is 0 when every warp stayed positionally converged and > 0 when some
// stream was regrouped into rows; the suite's pinned launches must regroup
// somewhere too, so the app digests keep covering that path.
//
// A mismatch prints the recomputed digest.  Re-pinning one needs a stated
// reason (a deliberate model change) recorded alongside the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/suite.h"
#include "trace_cases.h"
#include "trace_digest.h"

namespace g80 {
namespace {

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

void expect_pinned(const char* what, std::uint64_t got, std::uint64_t pinned) {
  EXPECT_EQ(got, pinned)
      << what << ": digest " << digest_hex(got) << " != pinned "
      << digest_hex(pinned)
      << " -- the trace statistics changed; re-pinning needs a stated reason";
}

struct LaunchCase {
  const char* name;
  std::function<TraceObserved()> run;
  std::uint64_t digest;
  bool regroups;  // expects per-lane regrouping (a diverged stream)
};

const std::vector<LaunchCase>& launch_cases() {
  static const std::vector<LaunchCase> cases = {
      {"converged_multi_space", run_converged_multi_space,
       0x56a671933df95cadull, false},
      // Divergent, yet clean: every lane's stores are a prefix of the
      // longest lane's (see the kernel).
      {"divergent_trip_count", run_divergent_trip_count,
       0x6a3fcdfb4b539d68ull, false},
      {"half_warp_arms", run_half_warp_arms, 0xd205b1142c778c0cull, true},
      {"scattered_store", run_scattered_store, 0xf1049adef561c330ull, false},
      {"sanitizer_observed", run_sanitizer_observed, 0xc5bb530b7bd769fcull,
       false},
      {"scope_matmul", run_scope_matmul, 0xfd1a828124d555eeull, false},
      {"pooled_matmul_w1", [] { return run_pooled_matmul(1); },
       0x1d4654ddf6aeaf6eull, false},
      {"pooled_matmul_w3", [] { return run_pooled_matmul(3); },
       0x1d4654ddf6aeaf6eull, false},
  };
  return cases;
}

TEST(TraceGolden, RecorderRegimeLaunchesMatchPinnedDigests) {
  for (const LaunchCase& c : launch_cases()) {
    const TraceObserved o = c.run();
    expect_pinned(c.name, launch_digest(kSpec, o.stats, o.sms), c.digest);
    if (c.regroups) {
      EXPECT_GT(o.stats.trace.regrouped_streams, 0u) << c.name;
    } else {
      EXPECT_EQ(o.stats.trace.regrouped_streams, 0u) << c.name;
    }
  }
}

TEST(TraceGolden, SuiteAppsMatchPinnedDigests) {
  struct AppPin {
    const char* name;
    std::uint64_t digest;
  };
  const AppPin pins[] = {
      {"Matrix Mul", 0x3ea26235c73adb28ull}, {"SAXPY", 0x0ab688f0db2a623eull},
      {"MRI-Q", 0xdb497fdf3c2735e7ull},      {"MRI-FHD", 0xdb263798868e9e2eull},
      {"CP", 0x537ba9f2e196d1d1ull},         {"TPACF", 0xed8dd66c95261edbull},
      {"RC5-72", 0xe47a7457e4b7ab07ull},     {"LBM", 0x6279bd28465f4367ull},
      {"FDTD", 0x9909d4a7c2bf4464ull},       {"FEM", 0x79f58a830d69108eull},
      {"PNS", 0x210ea061c87bfe6aull},        {"RPES", 0xbbafff62915c283dull},
      {"H.264", 0x72aaac2fe643091aull},
  };
  const auto suite = apps::make_suite();
  ASSERT_EQ(suite.size(), std::size(pins));
  std::uint64_t regrouped = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const AppResult r = suite[i]->run(kSpec, RunScale::kQuick);
    ASSERT_EQ(r.info.name, pins[i].name);
    expect_pinned(pins[i].name, app_digest(kSpec, r), pins[i].digest);
    regrouped += r.representative.trace.regrouped_streams;
  }
  EXPECT_GT(regrouped, 0u);
}

}  // namespace
}  // namespace g80
