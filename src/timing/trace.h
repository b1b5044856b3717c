// Warp-level execution traces produced by the tracing context and consumed
// by the timing model.
//
// A WarpTrace summarizes one warp's dynamic behaviour over a whole kernel:
// warp-level instruction counts per class (max over lanes — exact for the
// divergence-free kernels the paper's principle 3 produces, an approximation
// otherwise, with the divergent-branch fraction reported alongside), plus
// the memory-system outcomes (coalescing, bank conflicts, constant-cache
// serialization, texture hit rates) already resolved by the analyzers.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/isa.h"
#include "mem/dram.h"

namespace g80 {

// Per-call-site statistics accumulated over a block's warps (g80scope's
// stall-attribution input).  `site` is the recorder's call-site hash — stable
// within a run but derived from string addresses, so cross-run artifacts key
// on (file, line) instead.  `file` points at the static string
// std::source_location hands out; it outlives every trace.
struct SiteStats {
  std::uint32_t site = 0;
  const char* file = "";
  std::uint32_t line = 0;
  // Warp-level counts at this site.
  std::uint64_t global_instructions = 0;
  std::uint64_t global_transactions = 0;
  std::uint64_t uncoalesced_instructions = 0;
  std::uint64_t extra_transactions = 0;  // beyond a coalesced access's two
  std::uint64_t dram_bytes = 0;
  std::uint64_t shared_extra_passes = 0;  // bank-conflict replays
  std::uint64_t const_extra_passes = 0;   // constant-cache replays
  std::uint64_t texture_misses = 0;
  std::uint64_t syncs = 0;  // warp-level bar.sync count

  SiteStats& operator+=(const SiteStats& o);  // counts only, not identity
  // Exact equality, `file` included by pointer: std::source_location hands
  // out one static string per site, so two traces of the same binary agree.
  bool operator==(const SiteStats&) const = default;
};

// Merge `src` entries into `dst` by site id, keeping deterministic
// (file, line, site) ordering regardless of input order.
void merge_site_stats(std::vector<SiteStats>& dst,
                      const std::vector<SiteStats>& src);

struct WarpTrace {
  OpCounts ops;                        // warp-level instruction counts
  double lane_flops = 0;               // per-lane flops summed over lanes
  std::uint64_t global_instructions = 0;  // warp-level ld/st.global count
  DramTraffic global;                  // post-coalescing DRAM traffic
  std::uint64_t useful_global_bytes = 0;
  std::uint64_t coalesced_instructions = 0;  // fully coalesced warp accesses
  // Load/store split of the global warp instructions above (g80prof's
  // gld_*/gst_* counters; texture-miss pseudo-instructions are excluded and
  // surface via texture_misses instead).
  std::uint64_t gld_instructions = 0;
  std::uint64_t gld_coalesced = 0;
  std::uint64_t gst_instructions = 0;
  std::uint64_t gst_coalesced = 0;
  std::uint64_t shared_extra_passes = 0;     // bank-conflict serialization
  std::uint64_t const_extra_passes = 0;      // constant-cache serialization
  std::uint64_t texture_hits = 0;
  std::uint64_t texture_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t divergent_branches = 0;

  WarpTrace& operator+=(const WarpTrace& o);
  bool operator==(const WarpTrace&) const = default;

  // Cycles this warp occupies its SM's issue logic, including serialization
  // from bank conflicts and constant-cache replays.
  double issue_cycles(const DeviceSpec& spec) const;
};

struct BlockTrace {
  std::vector<WarpTrace> warps;
  // Per-call-site attribution, ordered by (file, line, site).
  std::vector<SiteStats> sites;
  // Per-warp streams (address spaces, branches, barriers) whose lanes
  // diverged positionally and were regrouped into rows by (key, occurrence)
  // (cudalite/trace_arena.h).
  std::uint64_t regrouped_streams = 0;
  // Recorder work: bytes of the SoA rows the trace arena appended, and
  // call-site lookups in its intern table.
  std::uint64_t arena_row_bytes = 0;
  std::uint64_t site_lookups = 0;
  // The most row bytes the arena held at once while the block was
  // collected (sampled before each drain and at block end).
  std::uint64_t arena_peak_bytes = 0;

  WarpTrace aggregate() const;
};

// Totals across sampled blocks; the timing model works with per-warp means.
struct TraceSummary {
  WarpTrace total;        // summed over all traced warps
  std::size_t num_warps = 0;
  std::size_t num_blocks = 0;
  // Per-call-site totals merged across blocks in sample order, so the result
  // is bit-identical whether blocks were traced sequentially or by a pool.
  std::vector<SiteStats> sites;
  // Summed over the traced blocks; not part of any digest or report.
  std::uint64_t regrouped_streams = 0;
  std::uint64_t arena_row_bytes = 0;
  std::uint64_t site_lookups = 0;
  // The largest BlockTrace::arena_peak_bytes of the traced blocks.
  std::uint64_t arena_peak_bytes = 0;

  static TraceSummary summarize(const std::vector<BlockTrace>& blocks);

  // Exact equality across every counter and site — how the invariant fuzzer
  // holds block-parallel traces to the sequential one.
  bool operator==(const TraceSummary&) const = default;

  double warps_per_block() const;
  // Per-warp means.
  double mean_issue_cycles(const DeviceSpec& spec) const;
  double mean_global_instructions() const;
  double mean_transactions() const;
  double mean_dram_bytes() const;
  // Ratio helpers.
  double transactions_per_mem_inst() const;
  double dram_bytes_per_mem_inst() const;
  double coalesced_fraction() const;
  double divergent_branch_fraction() const;
  double fmad_fraction() const;  // the paper's headline instruction-mix metric
};

}  // namespace g80
