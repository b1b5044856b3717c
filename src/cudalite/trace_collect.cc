#include "cudalite/trace_collect.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"

namespace g80 {

namespace {

// ---------------------------------------------------------------------------
// Per-instruction accumulation into the warp and per-site statistics.
// ---------------------------------------------------------------------------

void accumulate_global(WarpTrace& wt, SiteStats& ss, bool is_store,
                       const CoalesceResult& res) {
  ++ss.global_instructions;
  ss.global_transactions += static_cast<std::uint64_t>(res.transactions);
  ss.dram_bytes += res.dram_bytes;
  if (!res.coalesced) ++ss.uncoalesced_instructions;
  if (res.transactions > 2)
    ss.extra_transactions += static_cast<std::uint64_t>(res.transactions - 2);

  ++wt.global_instructions;
  wt.global.transactions += static_cast<std::uint64_t>(res.transactions);
  wt.global.bytes += res.dram_bytes;
  wt.global.scattered_bytes += res.scattered_bytes;
  wt.useful_global_bytes += res.useful_bytes;
  if (res.coalesced) ++wt.coalesced_instructions;
  // Load/store split for the g80prof gld_*/gst_* counters.
  if (is_store) {
    ++wt.gst_instructions;
    if (res.coalesced) ++wt.gst_coalesced;
  } else {
    ++wt.gld_instructions;
    if (res.coalesced) ++wt.gld_coalesced;
  }
}

// Texture misses behave like latency-bound scattered DRAM transactions of
// one cache line, charged to the warp's global traffic.
void accumulate_texture_misses(const DeviceSpec& spec, WarpTrace& wt,
                               SiteStats& ss, std::uint64_t misses) {
  wt.texture_misses += misses;
  wt.global_instructions += 1;
  wt.global.transactions += misses;
  const std::uint64_t b = misses * spec.texture_cache_line;
  wt.global.bytes += b;
  wt.global.scattered_bytes += b;
  ss.texture_misses += misses;
  ss.global_transactions += misses;
  ss.dram_bytes += b;
}

}  // namespace

TraceCollector::TraceCollector(const DeviceSpec& spec, TraceArena& arena)
    : spec_(spec),
      arena_(arena),
      tex_cache_(spec),
      exited_(static_cast<std::size_t>(arena.num_warps()), 0) {
  G80_CHECK(arena.num_lanes() > 0 && arena.warp_size() == spec.warp_size);
  block_.warps.resize(static_cast<std::size_t>(arena.num_warps()));
}

int TraceCollector::lane_count(int warp) const {
  return std::min(spec_.warp_size,
                  arena_.num_lanes() - warp * spec_.warp_size);
}

SiteStats& TraceCollector::site(std::uint32_t site) {
  // Few distinct sites per kernel: linear probing is cheaper than hashing.
  for (SiteStats& s : block_.sites) {
    if (s.site == site) return s;
  }
  SiteStats s;
  s.site = site;
  if (const SiteNote* n = arena_.site_note(site)) {
    s.file = n->file;
    s.line = n->line;
  }
  block_.sites.push_back(s);
  return block_.sites.back();
}

void TraceCollector::sample_peak() {
  block_.arena_peak_bytes =
      std::max(block_.arena_peak_bytes, arena_.held_row_bytes());
}

void TraceCollector::account(int warp, int space, const WarpSpaceBatch& rows,
                             std::size_t n) {
  WarpTrace& wt = block_.warps[static_cast<std::size_t>(warp)];
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t key = rows.keys[j];
    const SoaWarpAccess row{rows.masks[j], trace_key_size(key),
                            rows.row_addrs(j), rows.stride};
    switch (space) {
      case kSpaceBranch: {
        // Divergent when the row's active lanes hold both outcomes.
        std::uint32_t taken = 0;
        for (int k = 0; k < row.lanes; ++k)
          taken |= (row.addrs[k] != 0 ? 1u : 0u) << k;
        taken &= row.mask;
        ++wt.branches;
        if (taken != 0 && taken != row.mask) ++wt.divergent_branches;
        break;
      }
      case kSpaceGlobal:
        accumulate_global(wt, site(trace_key_site(key)), trace_key_store(key),
                          analyze_warp(spec_, row));
        break;
      case kSpaceShared: {
        const auto extra = static_cast<std::uint64_t>(
            analyze_shared_warp(spec_, row).extra_passes);
        wt.shared_extra_passes += extra;
        site(trace_key_site(key)).shared_extra_passes += extra;
        break;
      }
      case kSpaceConst: {
        const auto extra = static_cast<std::uint64_t>(
            analyze_const_warp(spec_, row).extra_passes);
        wt.const_extra_passes += extra;
        site(trace_key_site(key)).const_extra_passes += extra;
        break;
      }
      case kSpaceTexture: {
        const auto res = tex_cache_.access_warp(row);
        wt.texture_hits += res.hits;
        if (res.misses > 0)
          accumulate_texture_misses(spec_, wt, site(trace_key_site(key)),
                                    res.misses);
        break;
      }
      case kSpaceSync:
        // One row per warp-level bar.sync, so a site's rows number the most
        // times any lane of the warp crossed it.
        ++site(trace_key_site(key)).syncs;
        break;
    }
  }
}

void TraceCollector::on_barrier_release(const BarrierSnapshot&) {
  sample_peak();
  for (int w = 0; w < arena_.num_warps(); ++w) {
    const int lanes = lane_count(w);
    for (int space = 0; space < kNumTraceSpaces; ++space) {
      if (space == kSpaceTexture) continue;
      WarpSpaceBatch& s = *arena_.stream(w, space);
      const std::size_t n = s.final_rows(lanes);
      if (n == 0) continue;
      account(w, space, s, n);
      dropped_bytes_ += n * s.row_bytes();
      s.drop_front(n, lanes);
    }
  }
}

void TraceCollector::release(int warp, int space) {
  WarpSpaceBatch& s = *arena_.stream(warp, space);
  if (s.dirty()) {
    s.regroup(lane_count(warp), &scratch_);
    account(warp, space, scratch_, scratch_.rows());
    ++block_.regrouped_streams;
  } else {
    account(warp, space, s, s.rows());
  }
  dropped_bytes_ += s.rows() * s.row_bytes();
  s.reset(spec_.warp_size);
}

void TraceCollector::complete_warp(int warp) {
  sample_peak();
  const bool has_next = warp + 1 < arena_.num_warps();
  for (int space = 0; space < kNumTraceSpaces; ++space) {
    if (space == kSpaceTexture) continue;
    release(warp, space);
    // Hand the emptied storage on: in a barrier-free kernel the next warp
    // has not started, so one warp's capacity serves them all.
    WarpSpaceBatch* next = has_next ? arena_.stream(warp + 1, space) : nullptr;
    if (next != nullptr && next->rows() == 0)
      arena_.stream(warp, space)->swap_storage(*next);
  }
}

void TraceCollector::lane_exited(int lane_id) {
  const int warp = lane_id / spec_.warp_size;
  if (++exited_[static_cast<std::size_t>(warp)] == lane_count(warp))
    complete_warp(warp);
}

BlockTrace TraceCollector::finish() {
  sample_peak();
  for (int w = 0; w < arena_.num_warps(); ++w) {
    if (exited_[static_cast<std::size_t>(w)] < lane_count(w))
      complete_warp(w);
    // The texture cache runs warp-major, so texture rows go last, in warp
    // order.
    release(w, kSpaceTexture);

    // Instruction counts: per-class max over lanes (exact when the warp is
    // divergence-free).
    WarpTrace& wt = block_.warps[static_cast<std::size_t>(w)];
    const int lo = w * spec_.warp_size;
    const int hi = lo + lane_count(w);
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      std::uint64_t mx = 0;
      for (int k = lo; k < hi; ++k)
        mx = std::max(mx, arena_.lane(k)->ops.counts[c]);
      wt.ops.counts[c] = mx;
    }
    for (int k = lo; k < hi; ++k) wt.lane_flops += arena_.lane(k)->flops;
  }
  block_.arena_row_bytes = dropped_bytes_;
  block_.site_lookups = arena_.site_lookups();
  merge_site_stats(block_.sites, {});  // impose the deterministic ordering
  return std::move(block_);
}

}  // namespace g80
