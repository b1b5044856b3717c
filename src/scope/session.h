// Session sink for g80scope, mirroring prof::Profiler's contract: record a
// finished launch into it with `record_launch(name, dev.spec(), launch(...))`
// (or attach it to a g80rt runtime via `RuntimeOptions::scope`) and it
// accumulates one derived KernelScope per launch.  Recording happens after
// the launch returns, from statistics the trace pass produced anyway, so
// kernel outputs and LaunchStats are bit-identical with a scope session or
// without (bench/scope_overhead.cc asserts this).
//
// Each record gets a session-unique id; g80rt stamps the id of a launch it
// records on the launch's timeline span (TimelineSpan::scope_id), which is
// how the Chrome-trace exporter (scope/chrome_counters.h) aligns counter
// tracks under the right kernel slice.
//
// Thread safety: g80rt streams record concurrently from their host threads;
// all mutation is mutex-guarded.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "resil/policy.h"
#include "scope/scope.h"

namespace g80 {
struct LaunchStats;
}

namespace g80::scope {

struct LaunchRecord {
  std::uint64_t id = 0;  // session-unique; stamped on timeline spans
  std::string kernel_name;
  std::uint64_t stream = 0;
  KernelScope scope;
  // g80resil recovery provenance of this launch (attempt count, fallback
  // level, recovered/timed-out flags); default-valued when resilience was
  // disabled, so existing consumers are unaffected.
  ResilienceStats resilience;
};

class Session {
 public:
  explicit Session(BucketConfig cfg = {}) : cfg_(cfg) {}

  // Derives the time series of one finished launch, appends it under
  // `kernel_name` ("" -> "kernel") and returns the record id.
  std::uint64_t record_launch(std::string_view kernel_name,
                              const DeviceSpec& spec, const LaunchStats& stats,
                              std::uint64_t stream = 0);

  // Records in arrival order (copy; the session keeps accepting records).
  std::vector<LaunchRecord> launches() const;
  std::uint64_t size() const;
  const BucketConfig& config() const { return cfg_; }

  void clear();

 private:
  BucketConfig cfg_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<LaunchRecord> launches_;
};

}  // namespace g80::scope
