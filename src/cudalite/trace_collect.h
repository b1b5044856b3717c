// Aggregates the trace of one block into warp-level traces: reads each
// warp-level memory instruction off the block's TraceArena
// (cudalite/trace_arena.h), runs the coalescing / bank-conflict /
// constant-broadcast analyzers, simulates the texture cache, and detects
// branch divergence from the lanes' branch outcomes.  Clean arena streams
// feed the streaming *_soa analyzers row by row; dirty (positionally
// diverged) streams are reconstructed per lane and regrouped through
// group_warp_instructions into the AoS analyzers.
#pragma once

#include <vector>

#include "cudalite/lane_trace.h"
#include "hw/device_spec.h"
#include "mem/access.h"
#include "timing/trace.h"

namespace g80 {

class TraceArena;

// `lanes` and `arena` hold the same block: the lanes' counts, branches and
// barrier sites, and the arena's batched memory-access streams.
BlockTrace collect_block_trace(const DeviceSpec& spec,
                               const std::vector<LaneTrace>& lanes,
                               const TraceArena& arena);

// Groups per-lane access sequences (lane k's is lanes[k], k < lane_count)
// into warp-level instructions keyed by (site, occurrence at that site in
// the lane), in first-appearance order; each group has `warp_size` slots
// with inactive lanes left default.  Stays correct when divergent lanes
// execute different numbers of accesses.
std::vector<WarpAccess> group_warp_instructions(
    const std::vector<MemAccess>* lanes, int lane_count, int warp_size);

}  // namespace g80
