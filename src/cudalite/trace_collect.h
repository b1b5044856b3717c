// Aggregates the trace of one block into warp-level traces: reads each
// warp-level memory instruction off the block's TraceArena
// (cudalite/trace_arena.h) as one SoA row, runs the coalescing /
// bank-conflict / constant-broadcast analyzers and the texture cache on it,
// and detects branch divergence from the lanes' branch outcomes.  A dirty
// (positionally diverged) stream is first regrouped into rows
// (WarpSpaceBatch::regroup), so every instruction reaches the same analyzer.
#pragma once

#include <vector>

#include "cudalite/lane_trace.h"
#include "hw/device_spec.h"
#include "timing/trace.h"

namespace g80 {

class TraceArena;

// `lanes` and `arena` hold the same block: the lanes' counts, branches and
// barrier sites, and the arena's batched memory-access streams.
BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const std::vector<LaneTrace>& lanes,
                               const TraceArena& arena);

}  // namespace g80
