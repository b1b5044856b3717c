// Aggregates the trace of one block into warp-level traces: reads each
// warp-level instruction off the block's TraceArena (cudalite/trace_arena.h)
// as one SoA row.  Memory rows go through the coalescing / bank-conflict /
// constant-broadcast analyzers and the texture cache; a branch row diverges
// when its active lanes hold both outcomes; sync rows count barriers per
// site.  A dirty (positionally diverged) stream is first regrouped into
// rows (WarpSpaceBatch::regroup), so every instruction reaches the same
// accounting.
#pragma once

#include "hw/device_spec.h"
#include "timing/trace.h"

namespace g80 {

class TraceArena;

// `arena` holds one block recorded under `spec`.
BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const TraceArena& arena);

}  // namespace g80
