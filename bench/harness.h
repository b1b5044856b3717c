// Unified bench harness: one CLI, one result schema, for every binary under
// bench/.  A bench constructs a Harness from (argc, argv), prints its
// human-readable tables through `human()`, records scalar metrics into named
// `result()` rows, and returns `finish(spec)` from main.
//
// CLI contract (shared by scripts/run_benches.sh):
//   --out FILE   write the JSON result document to FILE
//   --json       print the JSON document on stdout (and silence human())
//   --seed N     workload seed, for benches that generate random inputs
//
// Result schema (g80bench-result, version 1):
//   {
//     "provenance": { "schema": "g80bench-result", "schema_version": 1,
//                     "git_describe", "build_config",
//                     "device", "device_spec_hash",
//                     "host": { "nproc", "cpu_model", "build_config" } },
//     "bench": "<name>", "seed": N,
//     "results": [ { "name": "<row>", "metrics": { "<key>": <number> } } ]
//   }
//
// Metric keys prefixed `wall_` are wall-clock measurements: recorded for
// context but excluded from regression comparison
// (scripts/check_bench_regression.py), since they depend on host load.
// The `host` stamp says which host those wall-clock numbers come from; the
// comparison ignores it.  Every other metric must be deterministic — a
// modeled quantity or an exact count — so baselines diff bit-for-bit across
// runs.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hw/device_spec.h"

namespace g80::bench {

// One named result row: an ordered bag of scalar metrics.
struct Result {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  // Sets (or overwrites) one metric; insertion order is preserved.
  void set(const std::string& key, double value);
};

class Harness {
 public:
  // Parses the common flags; unknown arguments print usage and exit(2).
  Harness(int argc, char** argv, std::string bench_name);

  std::uint64_t seed() const { return seed_; }
  bool json() const { return json_; }

  // Human-readable report stream: std::cout normally, a swallow-everything
  // stream under --json so stdout stays machine-parseable.
  std::ostream& human();

  // Result row keyed by name; created on first use, order preserved.
  Result& result(const std::string& name);

  // Serializes the result document to --out and/or stdout per the flags.
  // Returns the process exit code for main.
  int finish(const DeviceSpec& spec);

 private:
  std::string bench_name_;
  std::string out_path_;
  bool json_ = false;
  std::uint64_t seed_ = 7;
  std::vector<Result> results_;
};

}  // namespace g80::bench
