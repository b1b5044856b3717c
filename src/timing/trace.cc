#include "timing/trace.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace g80 {

SiteStats& SiteStats::operator+=(const SiteStats& o) {
  global_instructions += o.global_instructions;
  global_transactions += o.global_transactions;
  uncoalesced_instructions += o.uncoalesced_instructions;
  extra_transactions += o.extra_transactions;
  dram_bytes += o.dram_bytes;
  shared_extra_passes += o.shared_extra_passes;
  const_extra_passes += o.const_extra_passes;
  texture_misses += o.texture_misses;
  syncs += o.syncs;
  return *this;
}

namespace {

// Deterministic ordering: source position first (stable across runs), the
// site hash only as a same-line tiebreak (distinct columns on one line).
bool site_before(const SiteStats& a, const SiteStats& b) {
  const int c = std::strcmp(a.file, b.file);
  if (c != 0) return c < 0;
  if (a.line != b.line) return a.line < b.line;
  return a.site < b.site;
}

}  // namespace

void merge_site_stats(std::vector<SiteStats>& dst,
                      const std::vector<SiteStats>& src) {
  for (const SiteStats& s : src) {
    auto it = std::find_if(dst.begin(), dst.end(), [&](const SiteStats& d) {
      return d.site == s.site;
    });
    if (it == dst.end()) {
      dst.push_back(s);
    } else {
      *it += s;
    }
  }
  std::sort(dst.begin(), dst.end(), site_before);
}

WarpTrace& WarpTrace::operator+=(const WarpTrace& o) {
  ops += o.ops;
  lane_flops += o.lane_flops;
  global_instructions += o.global_instructions;
  global += o.global;
  useful_global_bytes += o.useful_global_bytes;
  coalesced_instructions += o.coalesced_instructions;
  gld_instructions += o.gld_instructions;
  gld_coalesced += o.gld_coalesced;
  gst_instructions += o.gst_instructions;
  gst_coalesced += o.gst_coalesced;
  shared_extra_passes += o.shared_extra_passes;
  const_extra_passes += o.const_extra_passes;
  texture_hits += o.texture_hits;
  texture_misses += o.texture_misses;
  branches += o.branches;
  divergent_branches += o.divergent_branches;
  return *this;
}

double WarpTrace::issue_cycles(const DeviceSpec& spec) const {
  double cyc = ops.warp_issue_cycles(spec);
  // Each extra shared-memory pass or constant-cache replay re-occupies the
  // issue pipeline for one warp-instruction slot.
  cyc += static_cast<double>(shared_extra_passes + const_extra_passes) *
         spec.warp_issue_cycles();
  // Uncoalesced global accesses serialize their per-lane transactions
  // through the SM's memory port: charge every transaction beyond the two a
  // coalesced warp access needs.
  const double base_txns = 2.0 * static_cast<double>(global_instructions);
  const double extra_txns =
      std::max(0.0, static_cast<double>(global.transactions) - base_txns);
  cyc += extra_txns * spec.uncoalesced_issue_cycles_per_txn;
  return cyc;
}

WarpTrace BlockTrace::aggregate() const {
  WarpTrace t;
  for (const auto& w : warps) t += w;
  return t;
}

TraceSummary TraceSummary::summarize(const std::vector<BlockTrace>& blocks) {
  TraceSummary s;
  s.num_blocks = blocks.size();
  for (const auto& b : blocks) {
    s.num_warps += b.warps.size();
    s.total += b.aggregate();
    s.regrouped_streams += b.regrouped_streams;
    s.arena_row_bytes += b.arena_row_bytes;
    s.site_lookups += b.site_lookups;
    s.arena_peak_bytes = std::max(s.arena_peak_bytes, b.arena_peak_bytes);
    merge_site_stats(s.sites, b.sites);
  }
  return s;
}

double TraceSummary::warps_per_block() const {
  return num_blocks == 0 ? 0.0
                         : static_cast<double>(num_warps) /
                               static_cast<double>(num_blocks);
}

double TraceSummary::mean_issue_cycles(const DeviceSpec& spec) const {
  G80_CHECK(num_warps > 0);
  return total.issue_cycles(spec) / static_cast<double>(num_warps);
}

double TraceSummary::mean_global_instructions() const {
  G80_CHECK(num_warps > 0);
  return static_cast<double>(total.global_instructions) /
         static_cast<double>(num_warps);
}

double TraceSummary::mean_transactions() const {
  G80_CHECK(num_warps > 0);
  return static_cast<double>(total.global.transactions) /
         static_cast<double>(num_warps);
}

double TraceSummary::mean_dram_bytes() const {
  G80_CHECK(num_warps > 0);
  return static_cast<double>(total.global.bytes) /
         static_cast<double>(num_warps);
}

double TraceSummary::transactions_per_mem_inst() const {
  return total.global_instructions == 0
             ? 0.0
             : static_cast<double>(total.global.transactions) /
                   static_cast<double>(total.global_instructions);
}

double TraceSummary::dram_bytes_per_mem_inst() const {
  return total.global_instructions == 0
             ? 0.0
             : static_cast<double>(total.global.bytes) /
                   static_cast<double>(total.global_instructions);
}

double TraceSummary::coalesced_fraction() const {
  return total.global_instructions == 0
             ? 1.0
             : static_cast<double>(total.coalesced_instructions) /
                   static_cast<double>(total.global_instructions);
}

double TraceSummary::divergent_branch_fraction() const {
  return total.branches == 0 ? 0.0
                             : static_cast<double>(total.divergent_branches) /
                                   static_cast<double>(total.branches);
}

double TraceSummary::fmad_fraction() const {
  const auto t = total.ops.total();
  return t == 0 ? 0.0
                : static_cast<double>(total.ops[OpClass::kFMad]) /
                      static_cast<double>(t);
}

}  // namespace g80
