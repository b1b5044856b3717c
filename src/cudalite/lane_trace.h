// Per-thread (lane) dynamic trace recorded by the tracing context.
//
// Each lane independently logs its instruction-class counts and the ordered
// sequence of memory accesses per address space.  After the block completes,
// trace_collect.cc lines the lanes of a warp up by static instruction
// identity ("lane k's j-th access AT THIS CALL SITE belongs to the warp's
// j-th dynamic instance of that instruction") and runs the coalescing /
// bank-conflict / constant-broadcast analyzers on each reconstructed warp
// access.  Site-keyed grouping stays correct even when divergent lanes
// execute different numbers of accesses.
//
// On the default traced path the four per-space access vectors below stay
// EMPTY: the recorder streams accesses into the launch slot's TraceArena
// (trace_arena.h), which reconstructs the warp-level instructions
// positionally while recording, and the collector reads them off the
// arena's SoA rows.  The AoS vectors remain the storage for the legacy
// pipeline (ScopedTraceBatch(false), direct collect_block_trace callers) —
// both produce bit-identical BlockTraces.  Everything else in LaneTrace
// (op counts, flops, branches, syncs, site notes) is recorded per lane on
// both paths.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/isa.h"
#include "mem/access.h"

namespace g80 {

struct BranchEvent {
  std::uint32_t site = 0;
  bool taken = false;
};

// Source position of one recorder call site, registered on first use so the
// collector can translate site hashes back to file:line for attribution.
// `file` is std::source_location's static string; no ownership.
struct SiteNote {
  std::uint32_t site = 0;
  const char* file = "";
  std::uint32_t line = 0;
};

struct LaneTrace {
  OpCounts ops;
  double flops = 0;
  std::vector<MemAccess> global;
  std::vector<MemAccess> shared;
  std::vector<MemAccess> constant;
  std::vector<MemAccess> texture;
  std::vector<BranchEvent> branches;
  // bar.sync call sites in execution order (one entry per sync executed).
  std::vector<std::uint32_t> sync_sites;
  // site -> source position table (few distinct sites per kernel; the
  // recorder probes linearly with a most-recent fast path).
  std::vector<SiteNote> site_notes;

  void clear() {
    ops = OpCounts{};
    flops = 0;
    global.clear();
    shared.clear();
    constant.clear();
    texture.clear();
    branches.clear();
    sync_sites.clear();
    site_notes.clear();
  }
};

}  // namespace g80
