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

// Key of one warp-level dynamic instruction: the static call site plus the
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

// The call site of one reconstructed warp instruction: every grouped lane
// access shares it, so the first active lane decides.
std::uint32_t group_site(const WarpAccess& acc) {
  for (const MemAccess& a : acc) {
    if (a.active) return a.site;
  }
  return 0;
}

// Direction of one warp instruction (static property; any active lane).
bool group_store(const WarpAccess& acc) {
  for (const MemAccess& a : acc) {
    if (a.active) return a.store;
  }
  return false;
}

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
// Per-instruction accumulation, shared verbatim by the clean (SoA row) and
// dirty (regrouped WarpAccess) paths so the two cannot drift apart.
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

// One (warp, space) stream's warp-level instructions, in first-appearance
// order.  A clean stream's rows ARE that sequence and feed the streaming
// *_soa analyzers through `on_row(key, row)`; a dirty (positionally
// diverged) stream is reconstructed per lane (matched prefix rows plus the
// overflow tail), regrouped by (site, occurrence) and fed to the AoS
// analyzers through `on_group(acc)`.  Returns whether it regrouped.
// `scratch` is reused across streams.
template <class OnRow, class OnGroup>
bool for_each_instruction(const WarpSpaceBatch& s, int lane_count,
                          std::vector<std::vector<MemAccess>>& scratch,
                          OnRow&& on_row, OnGroup&& on_group) {
  if (!s.dirty()) {
    for (std::size_t j = 0; j < s.rows(); ++j)
      on_row(s.keys[j], SoaWarpAccess{s.masks[j], trace_key_size(s.keys[j]),
                                      s.row_addrs(j), s.stride});
    return false;
  }
  if (static_cast<int>(scratch.size()) < lane_count)
    scratch.resize(static_cast<std::size_t>(lane_count));
  for (int k = 0; k < lane_count; ++k)
    s.reconstruct_lane(k, &scratch[static_cast<std::size_t>(k)]);
  for (const WarpAccess& acc :
       group_warp_instructions(scratch.data(), lane_count, s.stride))
    on_group(acc);
  return true;
}

}  // namespace

std::vector<WarpAccess> group_warp_instructions(
    const std::vector<MemAccess>* lanes, int lane_count, int warp_size) {
  std::unordered_map<InstKey, std::size_t, InstKeyHash> index;
  std::vector<WarpAccess> groups;
  std::unordered_map<std::uint32_t, std::uint32_t> occurrence;

  for (int k = 0; k < lane_count; ++k) {
    occurrence.clear();
    for (const MemAccess& a : lanes[k]) {
      const InstKey key{a.site, occurrence[a.site]++};
      auto [it, inserted] = index.emplace(key, groups.size());
      if (inserted) groups.emplace_back(warp_size);
      groups[it->second][static_cast<std::size_t>(k)] = a;
    }
  }
  return groups;
}

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
  std::vector<std::vector<MemAccess>> scratch;  // dirty-stream reconstruction

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
                            trace_key_store(key), analyze_warp_soa(spec, row));
        },
        [&](const WarpAccess& acc) {
          accumulate_global(wt, sites, group_site(acc), group_store(acc),
                            analyze_warp(spec, acc));
        });

    // --- Shared memory: bank conflicts ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceShared), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          accumulate_shared(wt, sites, trace_key_site(key),
                            analyze_shared_warp_soa(spec, row));
        },
        [&](const WarpAccess& acc) {
          accumulate_shared(wt, sites, group_site(acc),
                            analyze_shared_warp(spec, acc));
        });

    // --- Constant memory: broadcast vs serialization ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceConst), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          accumulate_const(wt, sites, trace_key_site(key),
                           analyze_const_warp_soa(spec, row));
        },
        [&](const WarpAccess& acc) {
          accumulate_const(wt, sites, group_site(acc),
                           analyze_const_warp(spec, acc));
        });

    // --- Texture: run the cache in warp-instruction order ---
    regrouped += for_each_instruction(
        arena.stream(w, kSpaceTexture), lane_count, scratch,
        [&](std::uint64_t key, const SoaWarpAccess& row) {
          const auto res = tex_cache.access_warp_soa(row);
          accumulate_texture(spec, wt, sites, trace_key_site(key), res.hits,
                             res.misses);
        },
        [&](const WarpAccess& acc) {
          std::uint64_t hits = 0, misses = 0;
          for (const MemAccess& a : acc) {
            if (!a.active) continue;
            if (tex_cache.access(a.addr)) ++hits;
            else ++misses;
          }
          accumulate_texture(spec, wt, sites, group_site(acc), hits, misses);
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
  block.sites = sites.take();
  merge_site_stats(block.sites, {});  // impose the deterministic ordering
  return block;
}

}  // namespace g80
