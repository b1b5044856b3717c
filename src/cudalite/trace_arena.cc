#include "cudalite/trace_arena.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"

namespace g80 {

// ---------------------------------------------------------------------------
// SiteInterner
// ---------------------------------------------------------------------------

void SiteInterner::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  notes_.clear();
}

std::size_t SiteInterner::probe(std::uint32_t site) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (std::uint64_t{site} * 0x9e3779b97f4a7c15ull) & mask;
  while (slots_[i] != kEmpty && static_cast<std::uint32_t>(slots_[i]) != site)
    i = (i + 1) & mask;
  return i;
}

void SiteInterner::grow() {
  const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(cap, kEmpty);
  for (const std::uint64_t v : old) {
    if (v != kEmpty) slots_[probe(static_cast<std::uint32_t>(v))] = v;
  }
}

void SiteInterner::insert(const SiteNote& note) {
  if (slots_.empty() || notes_.size() * 10 >= slots_.size() * 7) grow();
  std::uint64_t& slot = slots_[probe(note.site)];
  if (slot != kEmpty) return;
  slot = note.site | static_cast<std::uint64_t>(notes_.size()) << 32;
  notes_.push_back(note);
}

const SiteNote* SiteInterner::find(std::uint32_t site) const {
  if (slots_.empty()) return nullptr;
  const std::uint64_t slot = slots_[probe(site)];
  return slot == kEmpty ? nullptr : &notes_[slot >> 32];
}

// ---------------------------------------------------------------------------
// WarpSpaceBatch
// ---------------------------------------------------------------------------

void WarpSpaceBatch::reconstruct_lane(int sub,
                                      std::vector<MemAccess>* out) const {
  out->clear();
  const std::uint32_t prefix = cursor[static_cast<std::size_t>(sub)];
  out->reserve(prefix + overflow[static_cast<std::size_t>(sub)].size());
  for (std::uint32_t j = 0; j < prefix; ++j) {
    const std::uint64_t key = keys[j];
    out->push_back({addrs[j * static_cast<std::size_t>(stride) + sub],
                    trace_key_size(key), trace_key_site(key),
                    trace_key_store(key)});
  }
  const auto& tail = overflow[static_cast<std::size_t>(sub)];
  out->insert(out->end(), tail.begin(), tail.end());
}

void WarpSpaceBatch::drop_front(std::size_t n, int lane_count) {
  G80_CHECK(n <= final_rows(lane_count));
  if (n == 0) return;
  const auto row_end = static_cast<std::ptrdiff_t>(n);
  keys.erase(keys.begin(), keys.begin() + row_end);
  masks.erase(masks.begin(), masks.begin() + row_end);
  addrs.erase(addrs.begin(), addrs.begin() + row_end * stride);
  for (int k = 0; k < lane_count; ++k)
    cursor[static_cast<std::size_t>(k)] -= static_cast<std::uint32_t>(n);
}

void WarpSpaceBatch::regroup(int lane_count, WarpSpaceBatch* out) const {
  out->reset(stride);
  // Per key: the rows of its occurrences so far, and how many of them the
  // current lane has reached.
  struct KeyRows {
    std::vector<std::size_t> rows;
    std::size_t next = 0;
    int lane = -1;
  };
  std::unordered_map<std::uint64_t, KeyRows> by_key;
  std::vector<MemAccess> seq;
  for (int k = 0; k < lane_count; ++k) {
    reconstruct_lane(k, &seq);
    for (const MemAccess& a : seq) {
      const std::uint64_t key = pack_trace_key(a.site, a.size, a.store);
      KeyRows& g = by_key[key];
      if (g.lane != k) {
        g.lane = k;
        g.next = 0;
      }
      if (g.next == g.rows.size()) g.rows.push_back(out->append_row(key));
      const std::size_t row = g.rows[g.next++];
      out->masks[row] |= 1u << k;
      out->addrs[row * static_cast<std::size_t>(stride) + k] = a.addr;
    }
  }
}

// ---------------------------------------------------------------------------
// TraceArena
// ---------------------------------------------------------------------------

void TraceArena::begin_block(const DeviceSpec& spec, int num_lanes) {
  G80_CHECK(num_lanes > 0 && supports_warp_size(spec.warp_size));
  warp_size_ = spec.warp_size;
  num_warps_ = (num_lanes + warp_size_ - 1) / warp_size_;
  const std::size_t need =
      static_cast<std::size_t>(num_warps_) * kNumTraceSpaces;
  if (streams_.size() < need) streams_.resize(need);
  for (std::size_t i = 0; i < need; ++i) streams_[i].reset(warp_size_);
  lanes_.assign(static_cast<std::size_t>(num_lanes), LaneCounts{});
  sites_.clear();
  site_lookups_ = 0;
}

std::uint64_t TraceArena::held_row_bytes() const {
  const std::size_t n = static_cast<std::size_t>(num_warps_) * kNumTraceSpaces;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i)
    bytes += streams_[i].rows() * streams_[i].row_bytes();
  return bytes;
}

}  // namespace g80
