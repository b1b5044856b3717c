#include "mem/const_cache.h"

#include <algorithm>

namespace g80 {

WarpConstCost analyze_const_warp(const DeviceSpec& spec,
                                 const SoaWarpAccess& row) {
  const int hw = spec.warp_size / 2;
  WarpConstCost cost;
  for (int lo = 0; lo < row.lanes; lo += hw) {
    const int n = std::min(hw, row.lanes - lo);
    const std::uint32_t half_mask =
        (n >= 32 ? ~0u : ((1u << n) - 1u)) & (row.mask >> lo);
    if (half_mask == 0) continue;
    // Distinct addresses among the half-warp's active lanes.
    std::uint64_t uniq[32];
    int nuniq = 0;
    for (int k = 0; k < n; ++k) {
      if ((half_mask >> k & 1u) == 0) continue;
      const std::uint64_t a = row.addrs[lo + k];
      int i = 0;
      while (i < nuniq && uniq[i] != a) ++i;
      if (i == nuniq) uniq[nuniq++] = a;
    }
    cost.passes += nuniq;
    cost.extra_passes += nuniq - 1;
  }
  return cost;
}

}  // namespace g80
