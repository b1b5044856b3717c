#include "cudalite/trace_collect.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "cudalite/trace_arena.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/texture_cache.h"

namespace g80 {

namespace {

// Per-site accumulator for the g80scope attribution (few distinct sites per
// kernel; linear probing is cheaper than hashing here).
class SiteAccumulator {
 public:
  explicit SiteAccumulator(const TraceArena& arena) : arena_(arena) {}

  SiteStats& at(std::uint32_t site) {
    for (SiteStats& s : sites_) {
      if (s.site == site) return s;
    }
    SiteStats s;
    s.site = site;
    if (const SiteNote* n = arena_.site_note(site)) {
      s.file = n->file;
      s.line = n->line;
    }
    sites_.push_back(s);
    return sites_.back();
  }

  std::vector<SiteStats> take() { return std::move(sites_); }

 private:
  const TraceArena& arena_;
  std::vector<SiteStats> sites_;
};

// ---------------------------------------------------------------------------
// Per-instruction accumulation into the warp and per-site statistics.
// ---------------------------------------------------------------------------

void accumulate_global(WarpTrace& wt, SiteAccumulator& sites,
                       std::uint32_t site, bool is_store,
                       const CoalesceResult& res) {
  {
    SiteStats& ss = sites.at(site);
    ++ss.global_instructions;
    ss.global_transactions += static_cast<std::uint64_t>(res.transactions);
    ss.dram_bytes += res.dram_bytes;
    if (!res.coalesced) ++ss.uncoalesced_instructions;
    if (res.transactions > 2) {
      ss.extra_transactions +=
          static_cast<std::uint64_t>(res.transactions - 2);
    }
  }
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

void accumulate_shared(WarpTrace& wt, SiteAccumulator& sites,
                       std::uint32_t site, const WarpBankCost& cost) {
  wt.shared_extra_passes += static_cast<std::uint64_t>(cost.extra_passes);
  sites.at(site).shared_extra_passes +=
      static_cast<std::uint64_t>(cost.extra_passes);
}

void accumulate_const(WarpTrace& wt, SiteAccumulator& sites,
                      std::uint32_t site, const WarpConstCost& cost) {
  wt.const_extra_passes += static_cast<std::uint64_t>(cost.extra_passes);
  sites.at(site).const_extra_passes +=
      static_cast<std::uint64_t>(cost.extra_passes);
}

// Texture misses behave like latency-bound scattered DRAM transactions of
// one cache line, charged to the warp's global traffic.
void accumulate_texture(const DeviceSpec& spec, WarpTrace& wt,
                        SiteAccumulator& sites, std::uint32_t site,
                        std::uint64_t hits, std::uint64_t misses) {
  wt.texture_hits += hits;
  wt.texture_misses += misses;
  if (misses > 0) {
    wt.global_instructions += 1;
    wt.global.transactions += misses;
    const std::uint64_t b = misses * spec.texture_cache_line;
    wt.global.bytes += b;
    wt.global.scattered_bytes += b;
    SiteStats& ss = sites.at(site);
    ss.texture_misses += misses;
    ss.global_transactions += misses;
    ss.dram_bytes += b;
  }
}

// Feeds one per-warp stream's warp-level instructions, in
// first-appearance order, to `on_row(key, row)`.  A clean stream's rows ARE
// that sequence; a dirty (positionally diverged) stream is regrouped into
// `scratch` first.  Returns whether it regrouped.
template <class OnRow>
bool for_each_instruction(const WarpSpaceBatch& s, int lane_count,
                          WarpSpaceBatch& scratch, OnRow&& on_row) {
  const WarpSpaceBatch* rows = &s;
  if (s.dirty()) {
    s.regroup(lane_count, &scratch);
    rows = &scratch;
  }
  for (std::size_t j = 0; j < rows->rows(); ++j)
    on_row(rows->keys[j], SoaWarpAccess{rows->masks[j],
                                        trace_key_size(rows->keys[j]),
                                        rows->row_addrs(j), rows->stride});
  return s.dirty();
}

}  // namespace

BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const TraceArena& arena) {
  const int ws = spec.warp_size;
  const int num_lanes = arena.num_lanes();
  const int num_warps = arena.num_warps();
  G80_CHECK(num_lanes > 0 && arena.warp_size() == ws);

  BlockTrace block;
  block.warps.resize(num_warps);
  SiteAccumulator sites(arena);
  WarpSpaceBatch scratch;  // dirty-stream regrouping

  // One texture cache per block approximates the per-SM cache shared by the
  // blocks resident on an SM (they run the same kernel, so per-block
  // hit rates are representative).
  TextureCache tex_cache(spec);

  for (int w = 0; w < num_warps; ++w) {
    WarpTrace& wt = block.warps[w];
    const int lo = w * ws;
    const int hi = std::min(lo + ws, num_lanes);
    const int lane_count = hi - lo;

    // --- Instruction counts: per-class max over lanes (exact when the warp
    // is divergence-free). ---
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      std::uint64_t mx = 0;
      for (int k = lo; k < hi; ++k)
        mx = std::max(mx, arena.lane(k).ops.counts[c]);
      wt.ops.counts[c] = mx;
    }
    for (int k = lo; k < hi; ++k) wt.lane_flops += arena.lane(k).flops;

    // --- Branch divergence: one row per warp-level branch, divergent when
    // its active lanes hold both outcomes. ---
    int regrouped = for_each_instruction(
        arena.stream(w, kSpaceBranch), lane_count, scratch,
        [&](std::uint64_t, const SoaWarpAccess& row) {
          std::uint32_t taken = 0;
          for (int k = 0; k < row.lanes; ++k)
            taken |= (row.addrs[k] != 0 ? 1u : 0u) << k;
          taken &= row.mask;
          ++wt.branches;
          if (taken != 0 && taken != row.mask) ++wt.divergent_branches;
        });

    // --- Global memory: coalescing per warp-level instruction ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceGlobal), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          accumulate_global(wt, sites, trace_key_site(key),
                            trace_key_store(key), analyze_warp(spec, row));
        });

    // --- Shared memory: bank conflicts ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceShared), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          accumulate_shared(wt, sites, trace_key_site(key),
                            analyze_shared_warp(spec, row));
        });

    // --- Constant memory: broadcast vs serialization ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceConst), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          accumulate_const(wt, sites, trace_key_site(key),
                           analyze_const_warp(spec, row));
        });

    // --- Texture: run the cache in warp-instruction order ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceTexture), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          const auto res = tex_cache.access_warp(row);
          accumulate_texture(spec, wt, sites, trace_key_site(key), res.hits,
                             res.misses);
        });

    // --- Barriers: one row per warp-level bar.sync, so a site's rows number
    // the most times any lane of the warp crossed it. ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceSync), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess&) {
          ++sites.at(trace_key_site(key)).syncs;
        });
    block.regrouped_streams += static_cast<std::uint64_t>(regrouped);
  }
  block.arena_row_bytes = arena.row_bytes();
  block.site_lookups = arena.site_lookups();
  block.sites = sites.take();
  merge_site_stats(block.sites, {});  // impose the deterministic ordering
  return block;
}

}  // namespace g80
