// g80scope — time-resolved telemetry derived from the timing model.
//
// The analytical model (timing/model.h) reduces a launch to one number per
// wave; g80scope re-expands that number into a cycle-bucketed time series
// per SM — active warps, achieved occupancy, and an issue-vs-stall cycle
// breakdown (pure instruction issue, warp serialization from bank-conflict
// and constant-cache replays, memory-port serialization from uncoalesced
// transactions, exposed memory latency, barrier wait) plus modeled DRAM
// traffic against the device's bandwidth ceiling — and attributes the stall
// cycles back to kernel source lines via the recorder's call-site traces.
//
// The series is *derived*, not measured: it is a deterministic function of
// (DeviceSpec, Occupancy, grid size, TraceSummary, KernelTiming), computed
// after the launch's passes complete.  Attaching a scope therefore cannot
// perturb kernel outputs or timing (bench/scope_overhead.cc asserts
// bit-identical results with the scope on and off), and every extensive
// series conserves exactly: summing a quantity's buckets over all SMs
// reproduces the launch total the aggregate model implies
// (tests/scope_test.cc pins this down against g80prof's counters).
//
// The TraceSummary input comes from the trace arena's batched recording
// (cudalite/trace_arena.h); tests/trace_batch_test.cc pins golden digests of
// the resulting bucket series, recorded when per-lane recording still
// existed and agreed element for element.
//
// How the expansion works
// -----------------------
//   * The grid executes as waves of `blocks_per_sm x num_sms` resident
//     blocks.  Full waves take `timing.wave_cycles` each; the remainder
//     wave distributes its blocks round-robin over the SMs, and an SM with
//     t of the usual blocks_per_sm blocks runs a tail wave scaled by
//     t/blocks_per_sm in both duration and every extensive quantity —
//     rates stay flat while resident warps (and thus occupancy) visibly
//     drop, which is exactly the tail-wave effect worth seeing.
//   * Within a wave, `round(syncs_per_warp)` barrier intervals alternate
//     [work][barrier-stall] segments, each quantity spread uniformly over
//     the work segments.  Buckets integrate rate x overlap, so the series
//     conserves by construction no matter the bucket width.
//   * Per-source-line attribution splits each launch-total stall category
//     across the call sites the trace pass recorded, proportionally to the
//     site's share of the category's cause (extra transactions, replay
//     passes, barrier count, global transactions) — shares sum to one, so
//     the site table reconciles with the series totals exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/device_spec.h"
#include "occupancy/occupancy.h"
#include "timing/model.h"
#include "timing/trace.h"

namespace g80::scope {

struct BucketConfig {
  // Buckets to aim for over the launch's modeled duration; the actual count
  // never exceeds max_buckets and never drops below 1.
  int target_buckets = 64;
  int max_buckets = 4096;
};

// Stall-cycle attribution for one kernel source line (one recorder call
// site).  Cycles are launch totals, summed over all SMs and waves.
struct SiteAttribution {
  std::string file;
  std::uint32_t line = 0;
  std::uint32_t site = 0;  // recorder hash; stable within a run only
  double uncoalesced_cycles = 0;    // memory-port serialization (extra txns)
  double serialization_cycles = 0;  // bank-conflict + constant-cache replays
  double barrier_cycles = 0;        // exposed __syncthreads wait
  double mem_stall_cycles = 0;      // exposed global-memory latency
  // Context for the report: what this line did, per the sampled trace.
  std::uint64_t global_instructions = 0;
  std::uint64_t syncs = 0;

  double total_cycles() const {
    return uncoalesced_cycles + serialization_cycles + barrier_cycles +
           mem_stall_cycles;
  }
};

// One SM's bucket series.  Cycle quantities are cycles spent *in that
// bucket*; `active_warps`/`occupancy` are time-weighted averages over the
// bucket; `dram_bytes` is the SM's share of DRAM traffic issued in it.
struct SmSeries {
  std::vector<double> active_warps;
  std::vector<double> occupancy;            // active_warps / max warps per SM
  std::vector<double> issue_cycles;         // pure instruction issue
  std::vector<double> serialization_cycles; // shared/const replay slots
  std::vector<double> uncoalesced_cycles;   // memory-port serialization
  std::vector<double> mem_stall_cycles;     // exposed memory latency
  std::vector<double> barrier_cycles;       // barrier wait
  std::vector<double> instructions;         // warp-instructions issued
  std::vector<double> dram_bytes;
};

// Launch totals implied by the aggregate model; the per-bucket series above
// must sum back to these (the conservation contract).
struct ScopeTotals {
  double issue_cycles = 0;
  double serialization_cycles = 0;
  double uncoalesced_cycles = 0;
  double mem_stall_cycles = 0;
  double barrier_cycles = 0;
  double instructions = 0;
  double dram_bytes = 0;
};

struct KernelScope {
  // Makespan of the wave schedule (the busiest SM's finishing time); equals
  // timing.kernel_cycles whenever the grid fills whole waves.
  double horizon_cycles = 0;
  double bucket_cycles = 0;
  int num_buckets = 0;
  std::vector<SmSeries> sms;             // spec.num_sms entries
  std::vector<double> device_dram_bytes; // per bucket, summed over SMs
  std::vector<double> dram_utilization;  // vs the peak-bandwidth ceiling
  std::vector<SiteAttribution> sites;    // ordered by (file, line, site)
  ScopeTotals totals;

  // Bucket start time in cycles / seconds (for exporters).
  double bucket_start_cycles(int b) const { return b * bucket_cycles; }
  double horizon_seconds(const DeviceSpec& spec) const {
    return horizon_cycles / (spec.core_clock_ghz * 1e9);
  }
};

// Derive the time series from one launch's statistics.  Pure function; the
// same inputs always produce the same series.
KernelScope derive_scope(const DeviceSpec& spec, const Occupancy& occ,
                         std::uint64_t total_blocks,
                         const TraceSummary& summary,
                         const KernelTiming& timing,
                         const BucketConfig& cfg = {});

}  // namespace g80::scope
