// Constant-memory model.
//
// G80 constant memory is a small cached read-only space whose cache serves a
// half-warp in one cycle *if all active lanes read the same address*
// (broadcast); distinct addresses serialize, one cache access per distinct
// address.  The MRI and CP kernels in the paper lean heavily on broadcast
// constant reads for their sample-parameter arrays.
#pragma once

#include "hw/device_spec.h"
#include "mem/access.h"

namespace g80 {

struct WarpConstCost {
  int passes = 0;        // distinct-address passes summed over the half-warps
  int extra_passes = 0;  // passes beyond one per issuing half-warp
};

// Cost of one warp-level constant-memory instruction (one SoA trace-arena
// row); a half-warp with no active lane issues nothing.
WarpConstCost analyze_const_warp(const DeviceSpec& spec,
                                 const SoaWarpAccess& row);

}  // namespace g80
