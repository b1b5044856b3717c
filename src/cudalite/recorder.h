// Recorder policies for the execution context.
//
// The same kernel source runs under two instantiations of Ctx<Recorder>:
//  - NullRecorder: every hook is an empty inline function; the functional
//    pass over the full grid runs at native C++ speed.
//  - LaneRecorder: hooks append to the thread's LaneTrace for the timing
//    model (used on sampled blocks only).  When a TraceArena is attached
//    (the default traced path), memory accesses bypass the lane's AoS
//    vectors and stream into the arena's per-(warp, space) SoA batches, and
//    note_site replaces its linear scan with a last-site memo plus the
//    arena's O(1) block-level intern table (trace_arena.h).  Without an
//    arena (ScopedTraceBatch(false), or direct LaneRecorder construction)
//    the original per-lane pipeline runs unchanged, byte for byte — it is
//    the bit-identity reference tests/trace_batch_test.cc compares against.
#pragma once

#include <cstdint>
#include <source_location>

#include "cudalite/lane_trace.h"
#include "cudalite/trace_arena.h"
#include "hw/isa.h"

namespace g80 {

// A third instantiation, Ctx<SanitizerRecorder> (sanitizer/recorder.h),
// drives the g80check pass.  Recorders advertise `kSanitizing` so Ctx can
// compile the fault-injection hooks out of the other two entirely.

struct NullRecorder {
  static constexpr bool kTracing = false;
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
  static constexpr bool kTracing = true;
  static constexpr bool kSanitizing = false;

  // `arena` routes memory accesses into SoA batch streams (and, with it,
  // `lane_id` locates this lane's warp slot); nullptr keeps the legacy
  // per-lane AoS pipeline.
  explicit LaneRecorder(LaneTrace* lane, TraceArena* arena = nullptr,
                        int lane_id = 0)
      : lane_(lane) {
    if (arena != nullptr && arena->active()) {
      arena_ = arena;
      const int ws = arena->warp_size();
      sub_ = lane_id % ws;
      for (int s = 0; s < kNumTraceSpaces; ++s)
        streams_[s] = arena->stream(lane_id / ws, s);
    }
  }

  void count(OpClass c, int n = 1) {
    lane_->ops[c] += static_cast<std::uint64_t>(n);
  }
  void flops(double f) { lane_->flops += f; }

  void mem(OpClass c, std::uint64_t addr, std::uint32_t size,
           std::uint32_t site, const std::source_location& loc) {
    count(c);
    note_site(site, loc);
    const bool store =
        c == OpClass::kStoreGlobal || c == OpClass::kStoreShared;
    if (arena_ != nullptr) {
      const int space = trace_space_of(c);
      if (space >= 0) streams_[space]->record(sub_, site, size, store, addr);
      return;
    }
    const MemAccess a{addr, size, site, true, store};
    switch (c) {
      case OpClass::kLoadGlobal:
      case OpClass::kStoreGlobal: lane_->global.push_back(a); break;
      case OpClass::kLoadShared:
      case OpClass::kStoreShared: lane_->shared.push_back(a); break;
      case OpClass::kLoadConst: lane_->constant.push_back(a); break;
      case OpClass::kLoadTexture: lane_->texture.push_back(a); break;
      default: break;
    }
  }

  void branch_outcome(bool taken, std::uint32_t site) {
    lane_->branches.push_back({site, taken});
  }

  void sync_site(std::uint32_t site, const std::source_location& loc) {
    note_site(site, loc);
    lane_->sync_sites.push_back(site);
  }

 private:
  void note_site(std::uint32_t site, const std::source_location& loc) {
    if (arena_ != nullptr) {
      // Last-site memo (kernels hammer one site in a loop) + O(1) intern.
      // Block-level dedup: the first lane in the block to use a site holds
      // its note; the collector scans all lanes, so attribution is
      // content-identical to the per-lane legacy notes.
      if (last_site_ == site) return;
      last_site_ = site;
      if (arena_->intern_site(site))
        lane_->site_notes.push_back({site, loc.file_name(), loc.line()});
      return;
    }
    // Legacy reference path: most-recent memo, then an O(sites) scan.
    auto& notes = lane_->site_notes;
    if (!notes.empty() && notes.back().site == site) return;
    for (const SiteNote& n : notes) {
      if (n.site == site) return;
    }
    notes.push_back({site, loc.file_name(), loc.line()});
  }

  LaneTrace* lane_;
  TraceArena* arena_ = nullptr;
  WarpSpaceBatch* streams_[kNumTraceSpaces] = {};
  int sub_ = 0;                          // lane index within its warp
  std::uint64_t last_site_ = ~0ull;      // no site seen yet
};

}  // namespace g80
