// Recorder policies for the execution context.
//
// The same kernel source runs under two instantiations of Ctx<Recorder>:
//  - NullRecorder: every hook is an empty inline function; the blocks the
//    sweep runs functionally run at native C++ speed.
//  - LaneRecorder: records for the timing model (sampled blocks only), all
//    into the block's TraceArena (trace_arena.h): counts and flops into the
//    lane's LaneCounts; memory accesses, branch outcomes and barriers into
//    per-(warp, stream) SoA rows.  A memory access or barrier notes its
//    call site only where the lane opens a row or records to overflow (a
//    lane joining a row uses the site the row's creator noted), and notes
//    are deduplicated by a two-site memo plus the arena's O(1) block-level
//    intern table, which keeps each site's file:line.
#pragma once

#include <cstdint>
#include <source_location>

#include "cudalite/trace_arena.h"
#include "hw/isa.h"

namespace g80 {

// A third instantiation, Ctx<SanitizerRecorder> (sanitizer/recorder.h),
// drives a g80check sanitized sweep.  Recorders advertise `kSanitizing` so
// Ctx can compile the fault-injection hooks out of the other two entirely.

struct NullRecorder {
  static constexpr bool kSanitizing = false;

  void count(OpClass, int = 1) {}
  void flops(double) {}
  void mem(OpClass, std::uint64_t /*addr*/, std::uint32_t /*size*/,
           std::uint32_t /*site*/, const std::source_location& /*loc*/) {}
  void branch_outcome(bool, std::uint32_t /*site*/) {}
  void sync_site(std::uint32_t /*site*/, const std::source_location& /*loc*/) {}
};

class LaneRecorder {
 public:
  static constexpr bool kSanitizing = false;

  // `lane_id` (thread index in the block) locates this lane's counts and
  // warp streams in `arena`, which must have begun the block.
  LaneRecorder(TraceArena& arena, int lane_id)
      : arena_(&arena),
        counts_(arena.lane(lane_id)),
        sub_(lane_id % arena.warp_size()) {
    for (int s = 0; s < kNumTraceSpaces; ++s)
      streams_[s] = arena.stream(lane_id / arena.warp_size(), s);
  }

  void count(OpClass c, int n = 1) {
    counts_->ops[c] += static_cast<std::uint64_t>(n);
  }
  void flops(double f) { counts_->flops += f; }

  // `addr` is below 2^32 in every space (trace_arena.h), so the arena
  // keeps its low 32 bits.
  void mem(OpClass c, std::uint64_t addr, std::uint32_t size,
           std::uint32_t site, const std::source_location& loc) {
    count(c);
    const bool store =
        c == OpClass::kStoreGlobal || c == OpClass::kStoreShared;
    const int space = trace_space_of(c);
    if (space < 0 ||
        !streams_[space]->record(sub_, site, size, store,
                                 static_cast<std::uint32_t>(addr)))
      note_site(site, loc);
  }

  // Control events are size-0 rows: a branch's outcome sits in the lane's
  // value slot; a barrier's is 0.
  void branch_outcome(bool taken, std::uint32_t site) {
    streams_[kSpaceBranch]->record(sub_, site, 0, false, taken ? 1 : 0);
  }

  void sync_site(std::uint32_t site, const std::source_location& loc) {
    if (!streams_[kSpaceSync]->record(sub_, site, 0, false, 0))
      note_site(site, loc);
  }

 private:
  void note_site(std::uint32_t site, const std::source_location& loc) {
    // Memo of the last two sites (a loop body alternating A.ld / B.ld opens
    // rows at both) + O(1) intern, which keeps the note of the block's
    // first use of the site.
    if (recent_[0] == site || recent_[1] == site) return;
    recent_[1] = recent_[0];
    recent_[0] = site;
    arena_->intern_site({site, loc.file_name(), loc.line()});
  }

  TraceArena* arena_;
  LaneCounts* counts_;
  WarpSpaceBatch* streams_[kNumTraceSpaces] = {};
  int sub_;                                   // lane index within its warp
  std::uint64_t recent_[2] = {~0ull, ~0ull};  // no site seen yet
};

}  // namespace g80
