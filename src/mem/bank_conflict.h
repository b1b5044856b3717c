// Shared-memory bank-conflict analyzer.
//
// G80 shared memory has 16 banks, word-interleaved (bank = (addr/4) % 16).
// A half-warp's shared access completes in one cycle unless two or more
// lanes touch *different words* in the same bank, in which case the access
// serializes by the maximum per-bank degree.  All lanes reading the same
// word broadcast with no conflict (paper §5.2: "Care must be taken so that
// threads in the same warp access different banks").  A multi-word access
// (float2/float4, or wider) touches consecutive words, hence consecutive
// banks.
#pragma once

#include "hw/device_spec.h"
#include "mem/access.h"

namespace g80 {

// Full warp = two half-warps.
struct WarpBankCost {
  int passes = 0;        // total serialized passes across both half-warps
  int extra_passes = 0;  // passes beyond the conflict-free minimum
};

// Cost of one warp-level shared-memory instruction (one SoA trace-arena
// row); a half-warp with no active lane issues nothing.
WarpBankCost analyze_shared_warp(const DeviceSpec& spec,
                                 const SoaWarpAccess& row);

}  // namespace g80
