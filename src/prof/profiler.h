// g80prof — a CUDA-Visual-Profiler-style session profiler.
//
// A Profiler is a session-scoped sink: record a finished launch into it with
// `record_launch(name, dev.spec(), launch(...))` (or attach it to a whole
// g80rt runtime via `RuntimeOptions::profiler`) and it accumulates
// per-kernel counter profiles and host<->device transfer totals across
// every launch and stream that reports to it.  Recording happens once per
// launch, *after* it returns, from statistics the trace pass produced
// anyway — the launch never sees the profiler, so a profiled launch
// produces bit-identical kernel outputs (bench/prof_overhead.cc asserts
// this).
//
// Thread safety: g80rt streams record concurrently from their host
// threads; all mutation is mutex-guarded.  Aggregation is keyed by kernel
// name in first-launch order, mirroring the profiler tables nvprof-era
// tools print.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "prof/counters.h"
#include "timing/model.h"

namespace g80::prof {

// One kernel's aggregated profile (all launches recorded under one name).
struct KernelProfile {
  std::string name;
  std::uint64_t launches = 0;
  KernelCounters counters;     // summed over launches
  double modeled_seconds = 0;  // summed device-side kernel time
  // Most recent launch's headline numbers and configuration (launches
  // sharing a name run the same kernel in this suite).
  double gflops = 0;
  double dram_gbs = 0;
  Bottleneck bottleneck = Bottleneck::kInstructionIssue;
  int regs_per_thread = 0;
  std::size_t smem_per_block = 0;
  int max_simultaneous_threads = 0;  // Table 3, column 2
  Dim3 grid, block;
  // g80resil recovery provenance, accumulated over launches: total retried
  // attempts, launches with a watchdog-cancelled attempt, launches that
  // succeeded only via retry, and launches whose final attempt ran at a
  // degraded fallback level (see resil/policy.h).
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t recovered = 0;
  std::uint64_t fallback_launches = 0;
};

// Host<->device transfer totals (paper Table 3's "CPU-GPU transfer time").
struct TransferTotals {
  std::uint64_t h2d_count = 0, d2h_count = 0;
  std::uint64_t h2d_bytes = 0, d2h_bytes = 0;
  double modeled_seconds = 0;
};

class Profiler {
 public:
  // Aggregates one finished launch under `kernel_name` ("" -> "kernel").
  void record_launch(std::string_view kernel_name, const DeviceSpec& spec,
                     const LaunchStats& stats);
  void record_transfer(bool h2d, std::uint64_t bytes, double modeled_seconds);

  // Per-kernel profiles in first-launch order.
  std::vector<KernelProfile> kernels() const;
  TransferTotals transfers() const;
  std::uint64_t total_launches() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<KernelProfile> kernels_;  // ordered; linear lookup by name
  TransferTotals transfers_;
};

}  // namespace g80::prof
