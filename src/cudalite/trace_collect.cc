#include "cudalite/trace_collect.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "cudalite/trace_arena.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/texture_cache.h"

namespace g80 {

namespace {

// Key of one warp-level dynamic branch: the static call site plus the
// per-lane occurrence index at that site.
struct InstKey {
  std::uint32_t site = 0;
  std::uint32_t occurrence = 0;
  bool operator==(const InstKey&) const = default;
};

struct InstKeyHash {
  std::size_t operator()(const InstKey& k) const {
    return (static_cast<std::size_t>(k.site) << 20) ^ k.occurrence;
  }
};

// Per-site accumulator for the g80scope attribution (few distinct sites per
// kernel; linear probing is cheaper than hashing here).
class SiteAccumulator {
 public:
  explicit SiteAccumulator(const std::vector<LaneTrace>& lanes)
      : lanes_(lanes) {}

  SiteStats& at(std::uint32_t site) {
    for (SiteStats& s : sites_) {
      if (s.site == site) return s;
    }
    SiteStats s;
    s.site = site;
    for (const LaneTrace& lane : lanes_) {
      for (const SiteNote& n : lane.site_notes) {
        if (n.site == site) {
          s.file = n.file;
          s.line = n.line;
          break;
        }
      }
      if (s.line != 0) break;
    }
    sites_.push_back(s);
    return sites_.back();
  }

  std::vector<SiteStats> take() { return std::move(sites_); }

 private:
  const std::vector<LaneTrace>& lanes_;
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

// Feeds one (warp, space) stream's warp-level instructions, in
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
                               const std::vector<LaneTrace>& lanes,
                               const TraceArena& arena) {
  G80_CHECK(!lanes.empty());
  const int ws = spec.warp_size;
  const int num_warps = (static_cast<int>(lanes.size()) + ws - 1) / ws;
  G80_CHECK(arena.warp_size() == ws && arena.num_warps() == num_warps);

  BlockTrace block;
  block.warps.resize(num_warps);
  SiteAccumulator sites(lanes);
  WarpSpaceBatch scratch;  // dirty-stream regrouping

  // One texture cache per block approximates the per-SM cache shared by the
  // blocks resident on an SM (they run the same kernel, so per-block
  // hit rates are representative).
  TextureCache tex_cache(spec);

  for (int w = 0; w < num_warps; ++w) {
    WarpTrace& wt = block.warps[w];
    const int lo = w * ws;
    const int hi = std::min<int>(lo + ws, static_cast<int>(lanes.size()));

    // --- Instruction counts: per-class max over lanes (exact when the warp
    // is divergence-free; see lane_trace.h). ---
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      std::uint64_t mx = 0;
      for (int k = lo; k < hi; ++k)
        mx = std::max(mx, lanes[k].ops.counts[c]);
      wt.ops.counts[c] = mx;
    }
    for (int k = lo; k < hi; ++k) wt.lane_flops += lanes[k].flops;

    // --- Branch divergence: group outcomes by (site, occurrence) ---
    {
      std::unordered_map<InstKey, std::pair<bool, bool>, InstKeyHash> seen;
      std::vector<InstKey> order;
      std::unordered_map<std::uint32_t, std::uint32_t> occurrence;
      for (int k = lo; k < hi; ++k) {
        occurrence.clear();
        for (const BranchEvent& b : lanes[k].branches) {
          const InstKey key{b.site, occurrence[b.site]++};
          auto [it, inserted] = seen.emplace(key, std::pair{false, false});
          if (inserted) order.push_back(key);
          (b.taken ? it->second.first : it->second.second) = true;
        }
      }
      wt.branches += order.size();
      for (const auto& key : order) {
        const auto& [taken, not_taken] = seen.at(key);
        if (taken && not_taken) ++wt.divergent_branches;
      }
    }

    // --- Global memory: coalescing per warp-level instruction ---
    const int lane_count = hi - lo;
    int regrouped = for_each_instruction(
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
    block.regrouped_streams += static_cast<std::uint64_t>(regrouped);

    // --- Barriers: warp-level count per call site (max over lanes, the same
    // convention as the per-class instruction counts above). ---
    {
      std::unordered_map<std::uint32_t, std::uint64_t> warp_syncs;
      std::unordered_map<std::uint32_t, std::uint64_t> lane_syncs;
      for (int k = lo; k < hi; ++k) {
        lane_syncs.clear();
        for (const std::uint32_t site : lanes[k].sync_sites) {
          ++lane_syncs[site];
        }
        for (const auto& [site, n] : lane_syncs) {
          warp_syncs[site] = std::max(warp_syncs[site], n);
        }
      }
      for (const auto& [site, n] : warp_syncs) {
        sites.at(site).syncs += n;
      }
    }
  }
  block.arena_row_bytes = arena.row_bytes();
  block.site_lookups = arena.site_lookups();
  block.sites = sites.take();
  merge_site_stats(block.sites, {});  // impose the deterministic ordering
  return block;
}

}  // namespace g80
