#include "mem/coalescing.h"

#include <algorithm>
#include <bit>

namespace g80 {

CoalesceResult& CoalesceResult::operator+=(const CoalesceResult& o) {
  transactions += o.transactions;
  dram_bytes += o.dram_bytes;
  scattered_bytes += o.scattered_bytes;
  useful_bytes += o.useful_bytes;
  coalesced = coalesced && o.coalesced;
  return *this;
}

double CoalesceResult::overfetch() const {
  return useful_bytes == 0 ? 1.0
                           : static_cast<double>(dram_bytes) /
                                 static_cast<double>(useful_bytes);
}

namespace {

// One half-warp: lanes [lo, lo+n) of the row.  The row key fixes one width
// for every lane, so the rule's uniform-width condition always holds here.
CoalesceResult half_warp_result(const DeviceSpec& spec,
                                const SoaWarpAccess& row, int lo, int n) {
  CoalesceResult r;
  const std::uint32_t half_mask =
      (n >= 32 ? ~0u : ((1u << n) - 1u)) & (row.mask >> lo);
  const int active = std::popcount(half_mask);
  if (active == 0) return r;  // fully predicated-off: no traffic
  const std::uint32_t size = row.size;
  const std::uint32_t* addr = row.addrs + lo;

  // Strict compute-1.0 pattern: lane k at base + k*size, base aligned to the
  // 16-word segment.
  bool pattern_ok = size == 4 || size == 8 || size == 16;
  std::uint64_t base = 0;
  bool have_base = false;
  if (pattern_ok) {
    for (int k = 0; k < n && pattern_ok; ++k) {
      if ((half_mask >> k & 1u) == 0) continue;
      const std::uint64_t lane_base =
          std::uint64_t{addr[k]} - static_cast<std::uint64_t>(k) * size;
      if (!have_base) {
        base = lane_base;
        have_base = true;
      } else if (lane_base != base) {
        pattern_ok = false;
      }
    }
    const std::uint64_t seg =
        static_cast<std::uint64_t>(spec.warp_size / 2) * size;
    if (pattern_ok && (base % seg) != 0) pattern_ok = false;
  }

  const std::uint64_t min_txn = spec.dram_transaction_bytes;
  if (pattern_ok) {
    r.transactions = 1;
    const std::uint64_t seg =
        static_cast<std::uint64_t>(spec.warp_size / 2) * size;
    r.dram_bytes = std::max<std::uint64_t>(seg, min_txn);
    r.useful_bytes = static_cast<std::uint64_t>(active) * size;
    r.coalesced = true;
    return r;
  }

  // Serialized.  Two separate costs:
  //  - COMMAND cost: one transaction per *active lane*.  Compute-1.0
  //    hardware issues every non-coalesced lane separately — neither
  //    adjacent-but-misaligned lanes (segment merging arrived later) nor
  //    same-address lanes combine (footnote 4 hedges with "may be able to";
  //    the measured behaviour, and the reason the suite moves broadcast
  //    reads into constant memory, is that they do not).  The timing model
  //    charges both the SM's memory port and the device-wide DRAM command
  //    rate per transaction.
  //  - BYTE cost: unique minimum-size DRAM segments touched (back-to-back
  //    requests into one open row are row-buffer hits, so the pins only pay
  //    per segment).  Charged at the scattered-efficiency bandwidth.
  r.coalesced = false;
  r.transactions = active;
  r.useful_bytes = static_cast<std::uint64_t>(active) * size;
  Span segs[32];  // one per lane; a row has at most 32
  int nspans = 0;
  for (int k = 0; k < n; ++k) {
    if ((half_mask >> k & 1u) == 0) continue;
    // Segment of the first byte, and how far the last byte lies past that
    // segment's start (one division when the access stays in one segment).
    const std::uint64_t a = addr[k];
    const std::uint64_t first = a / min_txn;
    const std::uint64_t reach = a % min_txn + size - 1;
    push_span(segs, nspans,
              {first, first + (reach < min_txn ? 0 : reach / min_txn)});
  }
  nspans = merge_spans(segs, nspans);
  std::uint64_t nsegs = 0;
  for (int i = 0; i < nspans; ++i) nsegs += segs[i].hi - segs[i].lo + 1;
  r.dram_bytes = nsegs * min_txn;
  r.scattered_bytes = r.dram_bytes;
  return r;
}

}  // namespace

CoalesceResult analyze_warp(const DeviceSpec& spec, const SoaWarpAccess& row) {
  const int hw = spec.warp_size / 2;
  CoalesceResult total;
  total.coalesced = true;
  int issued = 0;
  for (int lo = 0; lo < row.lanes; lo += hw) {
    const int n = std::min(hw, row.lanes - lo);
    CoalesceResult half = half_warp_result(spec, row, lo, n);
    if (half.transactions == 0) continue;
    total += half;
    ++issued;
  }
  if (issued == 0) total.coalesced = false;
  return total;
}

}  // namespace g80
