// Reference implementations of the three G80 half-warp memory rules,
// written the plainest way: per-lane records with an `active` flag and
// std::set distinct counts.  The analyzers in src/mem read SoA rows and
// count with interval unions; tests/trace_oracle_test.cc holds them to these
// rules number for number on random rows (one width per row, as the arena
// produces them).  The same file keeps the reference warp-level branch and
// barrier counts, grouped from per-lane event lists by hash maps, that the
// collector's control-stream rows must reproduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/device_spec.h"
#include "mem/coalescing.h"

namespace g80::ref {

// A hand-built SoA row: lane k at addrs[k], active iff bit k of `mask`.
struct Row {
  std::uint32_t mask = 0;
  std::uint32_t size = 4;
  std::vector<std::uint32_t> addrs;

  SoaWarpAccess view() const {
    return {mask, size, addrs.data(), static_cast<int>(addrs.size())};
  }
};

struct Lane {
  std::uint64_t addr = 0;
  std::uint32_t size = 4;
  bool active = false;
};
using Warp = std::vector<Lane>;

inline CoalesceResult analyze_half_warp(const DeviceSpec& spec,
                                        const Lane* lanes, int lane_count) {
  const int hw = spec.warp_size / 2;
  lane_count = std::min(lane_count, hw);

  CoalesceResult r;
  r.coalesced = true;

  // Gather active lanes and the access width (G80 requires a uniform width
  // within the half-warp; mixed widths serialize).
  int active = 0;
  std::uint32_t size = 0;
  bool uniform_size = true;
  for (int k = 0; k < lane_count; ++k) {
    if (!lanes[k].active) continue;
    ++active;
    if (size == 0) size = lanes[k].size;
    else if (lanes[k].size != size) uniform_size = false;
  }
  if (active == 0) return {};  // fully predicated-off: no traffic

  // Check the strict compute-1.0 pattern: lane k at base + k*size, base
  // aligned to the 16-word segment.
  bool pattern_ok = uniform_size && (size == 4 || size == 8 || size == 16);
  std::uint64_t base = 0;
  bool have_base = false;
  if (pattern_ok) {
    for (int k = 0; k < lane_count && pattern_ok; ++k) {
      if (!lanes[k].active) continue;
      const std::uint64_t lane_base =
          lanes[k].addr - static_cast<std::uint64_t>(k) * size;
      if (!have_base) {
        base = lane_base;
        have_base = true;
      } else if (lane_base != base) {
        pattern_ok = false;
      }
    }
    const std::uint64_t seg = static_cast<std::uint64_t>(hw) * size;
    if (pattern_ok && (base % seg) != 0) pattern_ok = false;
  }

  const std::uint64_t min_txn = spec.dram_transaction_bytes;
  if (pattern_ok) {
    r.transactions = 1;
    const std::uint64_t seg = static_cast<std::uint64_t>(hw) * size;
    r.dram_bytes = std::max<std::uint64_t>(seg, min_txn);
    r.useful_bytes = static_cast<std::uint64_t>(active) * size;
    r.coalesced = true;
    return r;
  }

  // Serialized: one transaction per active lane; the bytes are the unique
  // minimum-size DRAM segments touched.
  r.coalesced = false;
  std::set<std::uint64_t> segments;
  for (int k = 0; k < lane_count; ++k) {
    if (!lanes[k].active) continue;
    ++r.transactions;
    for (std::uint64_t b = lanes[k].addr / min_txn;
         b <= (lanes[k].addr + lanes[k].size - 1) / min_txn; ++b)
      segments.insert(b);
    r.useful_bytes += lanes[k].size;
  }
  r.dram_bytes = static_cast<std::uint64_t>(segments.size()) * min_txn;
  r.scattered_bytes = r.dram_bytes;
  return r;
}

inline CoalesceResult analyze_warp(const DeviceSpec& spec, const Warp& warp) {
  const int hw = spec.warp_size / 2;
  CoalesceResult total;
  total.coalesced = true;
  int issued = 0;
  for (std::size_t lo = 0; lo < warp.size(); lo += hw) {
    const int n = static_cast<int>(std::min<std::size_t>(hw, warp.size() - lo));
    CoalesceResult half = analyze_half_warp(spec, warp.data() + lo, n);
    if (half.transactions == 0) continue;
    total.transactions += half.transactions;
    total.dram_bytes += half.dram_bytes;
    total.scattered_bytes += half.scattered_bytes;
    total.useful_bytes += half.useful_bytes;
    total.coalesced = total.coalesced && half.coalesced;
    ++issued;
  }
  if (issued == 0) total.coalesced = false;
  return total;
}

struct HalfWarpPasses {
  int serialization = 1;  // serialized passes for the half-warp
  bool broadcast = false;  // all active lanes hit one word / address
};

struct WarpPasses {
  int passes = 0;
  int extra_passes = 0;
};

// Shared memory: distinct words per bank.
inline HalfWarpPasses analyze_shared_half_warp(const DeviceSpec& spec,
                                               const Lane* lanes,
                                               int lane_count) {
  const int hw = spec.warp_size / 2;
  lane_count = std::min(lane_count, hw);
  const int banks = spec.shared_mem_banks;

  std::vector<std::set<std::uint64_t>> words(static_cast<std::size_t>(banks));
  std::set<std::uint64_t> all_words;
  int active = 0;
  for (int k = 0; k < lane_count; ++k) {
    if (!lanes[k].active) continue;
    ++active;
    // Multi-word accesses (e.g. float2/float4) touch consecutive banks.
    for (std::uint32_t off = 0; off < lanes[k].size; off += 4) {
      const std::uint64_t word = (lanes[k].addr + off) / 4;
      words[word % banks].insert(word);
      all_words.insert(word);
    }
  }

  HalfWarpPasses r;
  if (active == 0) return r;
  if (all_words.size() == 1) {
    r.broadcast = true;
    r.serialization = 1;
    return r;
  }
  int worst = 1;
  for (const auto& w : words)
    worst = std::max(worst, static_cast<int>(w.size()));
  r.serialization = worst;
  return r;
}

// Constant memory: distinct addresses.
inline HalfWarpPasses analyze_const_half_warp(const DeviceSpec& spec,
                                              const Lane* lanes,
                                              int lane_count) {
  const int hw = spec.warp_size / 2;
  lane_count = std::min(lane_count, hw);
  std::set<std::uint64_t> addrs;
  int active = 0;
  for (int k = 0; k < lane_count; ++k) {
    if (!lanes[k].active) continue;
    ++active;
    addrs.insert(lanes[k].addr);
  }
  HalfWarpPasses r;
  if (active == 0) return r;
  r.serialization = static_cast<int>(addrs.size());
  r.broadcast = addrs.size() == 1;
  return r;
}

// A full warp through one of the two half-warp pass rules above.
template <class HalfRule>
WarpPasses warp_passes(const DeviceSpec& spec, const Warp& warp,
                       HalfRule half_rule) {
  const int hw = spec.warp_size / 2;
  WarpPasses cost;
  for (std::size_t lo = 0; lo < warp.size(); lo += hw) {
    const int n = static_cast<int>(std::min<std::size_t>(hw, warp.size() - lo));
    bool any_active = false;
    for (int k = 0; k < n; ++k) any_active |= warp[lo + k].active;
    if (!any_active) continue;
    const auto half = half_rule(spec, warp.data() + lo, n);
    cost.passes += half.serialization;
    cost.extra_passes += half.serialization - 1;
  }
  return cost;
}

inline WarpPasses analyze_shared_warp(const DeviceSpec& spec,
                                      const Warp& warp) {
  return warp_passes(spec, warp, analyze_shared_half_warp);
}

inline WarpPasses analyze_const_warp(const DeviceSpec& spec,
                                     const Warp& warp) {
  return warp_passes(spec, warp, analyze_const_half_warp);
}

// ---- Branches and barriers -------------------------------------------------

struct BranchEvent {
  std::uint32_t site = 0;
  bool taken = false;
};

// One lane's control events: its branch outcomes and the bar.sync call
// sites it crossed, each in execution order.
struct LaneControl {
  std::vector<BranchEvent> branches;
  std::vector<std::uint32_t> syncs;
};

struct WarpControl {
  std::uint64_t branches = 0;
  std::uint64_t divergent_branches = 0;
  std::map<std::uint32_t, std::uint64_t> syncs;  // per bar.sync site
};

// One warp-level branch per (site, occurrence of the site in the lane);
// divergent when the lanes that executed it disagree.  Barriers count per
// site as the most times any lane crossed it.
inline WarpControl warp_control(const LaneControl* lanes, int lane_count) {
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
  std::unordered_map<InstKey, std::pair<bool, bool>, InstKeyHash> seen;
  WarpControl r;
  for (int k = 0; k < lane_count; ++k) {
    std::unordered_map<std::uint32_t, std::uint32_t> occurrence;
    for (const BranchEvent& b : lanes[k].branches) {
      auto& [taken, not_taken] =
          seen[InstKey{b.site, occurrence[b.site]++}];
      (b.taken ? taken : not_taken) = true;
    }
    std::map<std::uint32_t, std::uint64_t> lane_syncs;
    for (const std::uint32_t site : lanes[k].syncs) ++lane_syncs[site];
    for (const auto& [site, n] : lane_syncs)
      r.syncs[site] = std::max(r.syncs[site], n);
  }
  r.branches = seen.size();
  for (const auto& [key, outcomes] : seen)
    r.divergent_branches += outcomes.first && outcomes.second;
  return r;
}

}  // namespace g80::ref
