// Per-thread (lane) dynamic trace recorded by the tracing context: the
// lane's instruction-class counts, flops, branch outcomes, barrier sites and
// call-site notes.  Memory accesses do not land here; the recorder streams
// them into the launch slot's TraceArena (trace_arena.h), which lines a
// warp's lanes up into warp-level instructions while recording.  After the
// block completes, trace_collect.cc combines both into a BlockTrace.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/isa.h"

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
  std::vector<BranchEvent> branches;
  // bar.sync call sites in execution order (one entry per sync executed).
  std::vector<std::uint32_t> sync_sites;
  // Source positions of the sites this lane used first in its block (the
  // arena's intern table dedups across the block's lanes).
  std::vector<SiteNote> site_notes;

  void clear() {
    ops = OpCounts{};
    flops = 0;
    branches.clear();
    sync_sites.clear();
    site_notes.clear();
  }
};

}  // namespace g80
