#include "mem/bank_conflict.h"

#include <algorithm>

namespace g80 {

namespace {

// Serialization degree of one half-warp, lanes [lo, lo+n) of the row (0:
// no active lane).  Lane k touches the words [a/4, a/4 + ceil(size/4) - 1];
// the distinct words per bank are counted exactly from the union of those
// runs.
int half_warp_serialization(const DeviceSpec& spec, const SoaWarpAccess& row,
                            int lo, int n) {
  const std::uint32_t half_mask =
      (n >= 32 ? ~0u : ((1u << n) - 1u)) & (row.mask >> lo);
  if (half_mask == 0) return 0;  // nothing issued
  const std::uint64_t banks = static_cast<std::uint64_t>(spec.shared_mem_banks);
  const std::uint64_t words_per_lane = (row.size + 3) / 4;
  const std::uint32_t* addr = row.addrs + lo;

  // Fast path: when every word the active lanes touch lies in one window of
  // `banks` consecutive words, each bank holds at most one of them, so the
  // half-warp issues in one pass.  That answers a broadcast (one word) and
  // a unit-stride run of at most `banks` words without building spans.
  std::uint64_t first_word = ~0ull, last_word = 0;
  for (int k = 0; k < n; ++k) {
    if ((half_mask >> k & 1u) == 0) continue;
    const std::uint64_t w = std::uint64_t{addr[k]} / 4;
    first_word = std::min(first_word, w);
    last_word = std::max(last_word, w);
  }
  if (last_word + words_per_lane - first_word <= banks) return 1;

  Span words[32];  // one per lane; a row has at most 32
  int nspans = 0;
  for (int k = 0; k < n; ++k) {
    if ((half_mask >> k & 1u) == 0) continue;
    const std::uint64_t first = std::uint64_t{addr[k]} / 4;
    push_span(words, nspans, {first, first + words_per_lane - 1});
  }
  nspans = merge_spans(words, nspans);

  // A disjoint run of L words gives every bank L / banks of them, and one
  // more to each of the L % banks consecutive banks from (first word) %
  // banks: an arc on the ring of banks.  The worst bank is the common share
  // plus the most arcs covering one bank, and the deepest point of a set of
  // arcs is always one of their starts.
  std::uint64_t common = 0;
  std::uint32_t arc_start[32];  // < banks
  std::uint32_t arc_len[32];    // < banks
  for (int i = 0; i < nspans; ++i) {
    std::uint64_t len = words[i].hi - words[i].lo + 1;
    if (len >= banks) {
      common += len / banks;
      len %= banks;
    }
    arc_start[i] = static_cast<std::uint32_t>(words[i].lo % banks);
    arc_len[i] = static_cast<std::uint32_t>(len);
  }
  const std::uint32_t ring = static_cast<std::uint32_t>(banks);
  std::uint64_t deepest = 0;
  for (int i = 0; i < nspans; ++i) {
    if (arc_len[i] == 0) continue;
    std::uint32_t depth = 0;
    for (int j = 0; j < nspans; ++j) {
      const std::uint32_t offset = arc_start[i] - arc_start[j] +
                                   (arc_start[i] < arc_start[j] ? ring : 0);
      depth += offset < arc_len[j];
    }
    deepest = std::max<std::uint64_t>(deepest, depth);
  }
  return static_cast<int>(std::max<std::uint64_t>(1, common + deepest));
}

}  // namespace

WarpBankCost analyze_shared_warp(const DeviceSpec& spec,
                                 const SoaWarpAccess& row) {
  const int hw = spec.warp_size / 2;
  WarpBankCost cost;
  for (int lo = 0; lo < row.lanes; lo += hw) {
    const int n = std::min(hw, row.lanes - lo);
    const int ser = half_warp_serialization(spec, row, lo, n);
    if (ser == 0) continue;  // no active lane in this half
    cost.passes += ser;
    cost.extra_passes += ser - 1;
  }
  return cost;
}

}  // namespace g80
