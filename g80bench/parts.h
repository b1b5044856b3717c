// Building blocks shared by the workloads and the traced layer panel: the
// §4 four-version walk, the g80check-sanitized launch, one pass of the
// 13-app suite, and an in-process g80served rig with its traffic mix.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "prof/counters.h"
#include "serve/client.h"
#include "serve/server.h"

namespace g80::bench {

// ---- §4 walk ------------------------------------------------------------

// The paper's four matmul versions in §4 order, with the GFLOPS the paper
// states for each on the GeForce 8800 GTX.
struct WalkVersion {
  const char* key;  // metric suffix: naive, tiled, tiled_unrolled, prefetch
  int variant;      // apps::MatmulVariant
  double paper_gflops;
};
extern const std::array<WalkVersion, 4> kWalkVersions;

// Output of one walk: per-version launch stats and g80prof counters.
struct Walk {
  std::array<LaunchStats, 4> stats;
  std::array<prof::KernelCounters, 4> counters;
  double seconds = 0;
};

// Buffers of the 4096x4096 walk (trace-only: contents never read back).
struct WalkBuffers {
  static constexpr int kN = 4096;
  explicit WalkBuffers(Device& dev);
  DeviceBuffer<float> a, b, c;
};

// Runs the four versions trace-only on `dev`.  `observers` attaches a fresh
// g80prof Profiler and g80scope Session (as sec4_matmul_versions does).
// Blocks go to `pool` when non-null.
Walk run_walk(Device& dev, WalkBuffers& bufs, WorkerPool* pool,
              bool observers, Tracer* tr);

// Mean |model - paper| / paper over the four versions, in percent.
double model_err_pct(const Walk& w);

// ---- g80check launch ----------------------------------------------------

// n x n tiled + unrolled SGEMM inputs generated from a seed (n a multiple
// of 16).
struct Sgemm {
  Sgemm(Device& dev, int n, std::uint64_t seed);
  int n;
  std::vector<float> a_host, b_host;
  DeviceBuffer<float> a, b, c;

  std::uint64_t blocks() const {
    const auto tiles = static_cast<std::uint64_t>(n / 16);
    return tiles * tiles;
  }
};

// The sanitized tiled-unrolled launch with functional=false.
// `sample_blocks` = 0 isolates the sanitize pass.
LaunchStats sanitize_launch(Device& dev, Sgemm& m, int sample_blocks,
                            Tracer* tr);

// launch() of the tiled-unrolled SGEMM with `opt`, 16x16 blocks.
LaunchStats sgemm_launch(Device& dev, Sgemm& m, const LaunchOptions& opt,
                         Tracer* tr);
// Default LaunchOptions with the kernel's register count (regs 9).
LaunchOptions sgemm_options();

// ---- 13-app suite -------------------------------------------------------

// Metric keys of the suite's apps, in apps::make_suite() order.
extern const std::array<const char*, 13> kAppKeys;

struct SuitePass {
  std::array<double, 13> seconds{};  // wall time of each App::run
  int launches = 0;
  int validated = 0;
  double modeled_gpu_s = 0;  // sum of each app's modeled GPU kernel time
  double wall = 0;
};

// One sequential pass, each App::run(geforce_8800_gtx, scale).  Apps that
// throw count as not validated.
SuitePass run_suite_pass(bool full_scale, Tracer* tr, Outcome& out);

// ---- g80served rig ------------------------------------------------------

// An in-process daemon (default pool: 2 gtx, 1 ultra, 1 gts slots; memory
// cache tier only) with a warm set simulated once at start.
class ServeRig {
 public:
  ServeRig(const std::string& socket_path, std::uint64_t seed);
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  const std::string& socket() const { return socket_; }
  const std::vector<serve::JobRequest>& warm_set() const { return warm_; }
  // Result bytes of each warm job, from its first simulation.
  const std::vector<std::string>& reference() const { return reference_; }
  bool warm_ok() const { return warm_ok_; }

 private:
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::JobRequest> warm_;
  std::vector<std::string> reference_;
  bool warm_ok_ = true;
};

// One scrape of the daemon's `metrics` op, flattened by metric name.
struct Scrape {
  std::map<std::string, double> value;  // counters and gauges
  std::map<std::string, double> count;  // histogram observation counts
  std::map<std::string, double> sum;    // histogram sums (seconds)
  bool ok = false;
};
Scrape scrape(serve::Client& c, Tracer* tr);
// after[name] - before[name], a missing name reading as 0.
double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name);

struct MixResult {
  std::vector<double> hit_s, miss_s;  // client-side latency by `source`
  std::uint64_t requests = 0;         // job requests sent
  std::uint64_t hellos = 0;           // session hellos sent
  double wall = 0;
};

// Four closed-loop client sessions, each on its own thread and connection,
// for `seconds`: ~80% repeat a warm-set job, ~20% are fresh seeds (a miss
// that simulates and is stored).  Every response is checked into `out`.
MixResult run_mix(const ServeRig& rig, std::uint64_t seed, double seconds,
                  Tracer* tr, Outcome& out);

// One measured round against the daemon: a `metrics` scrape, the mix, a
// `stats` op and a second scrape.  Checks that the obs counters reconcile:
// requests == responses == the requests the round sent, and every request
// left a complete trace.
struct MixRound {
  Scrape before, after;
  MixResult mix;
  serve::Response stats;
};
MixRound run_mix_round(const ServeRig& rig, std::uint64_t seed,
                       double seconds, Tracer* tr, Outcome& out);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace g80::bench
