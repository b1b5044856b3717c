// Collects the trace of one block into warp-level traces while the block
// runs: reads each warp-level instruction off the block's TraceArena
// (cudalite/trace_arena.h) as one SoA row once the row is final, and drops
// it.  Memory rows go through the coalescing / bank-conflict /
// constant-broadcast analyzers and the texture cache; a branch row diverges
// when its active lanes hold both outcomes; sync rows count barriers per
// site.  A dirty (positionally diverged) stream is first regrouped into
// rows (WarpSpaceBatch::regroup), so every instruction reaches the same
// accounting.
//
// Rows are analyzed at three points, all through the same accounting:
//   - barrier release (the runner's BarrierObserver hook): each warp's
//     non-texture rows below its lanes' minimum cursor;
//   - warp complete (lane_exited for the warp's last lane): the warp's
//     non-texture streams in full, after which their row storage passes to
//     the next warp, so a barrier-free kernel reuses one warp's capacity;
//   - block end (finish): whatever is left, texture streams included — the
//     block's texture cache runs warp-major, so they stay whole until then.
// A block with no drain points (no barrier, no lane_exited calls) is
// collected by finish alone, and every point gives the same BlockTrace.
#pragma once

#include <cstdint>
#include <vector>

#include "cudalite/trace_arena.h"
#include "exec/block_runner.h"
#include "hw/device_spec.h"
#include "mem/texture_cache.h"
#include "timing/trace.h"

namespace g80 {

class TraceCollector final : public BarrierObserver {
 public:
  // `arena` has begun the block to collect; both must outlive the
  // collector.
  TraceCollector(const DeviceSpec& spec, TraceArena& arena);

  // Analyzes and drops every warp's final non-texture rows.
  void on_barrier_release(const BarrierSnapshot&) override;

  // Thread `lane_id` ran to completion; the warp's last lane completes it.
  void lane_exited(int lane_id);

  // Analyzes what is left and returns the block's trace.
  BlockTrace finish();

 private:
  int lane_count(int warp) const;
  // Accounts rows [0, n) of `rows`, a stream of `warp` in `space`.
  void account(int warp, int space, const WarpSpaceBatch& rows,
               std::size_t n);
  // Accounts a whole stream (regrouped when dirty), then empties it.
  void release(int warp, int space);
  void complete_warp(int warp);
  // SiteStats of `site` in the block, added on first use.
  SiteStats& site(std::uint32_t site);
  void sample_peak();

  const DeviceSpec& spec_;
  TraceArena& arena_;
  BlockTrace block_;
  // One texture cache per block approximates the per-SM cache shared by the
  // blocks resident on an SM (they run the same kernel, so per-block hit
  // rates are representative).
  TextureCache tex_cache_;
  WarpSpaceBatch scratch_;  // dirty-stream regrouping
  // Per warp: lanes that ran to completion (all of them: warp complete).
  std::vector<int> exited_;
  std::uint64_t dropped_bytes_ = 0;
};

}  // namespace g80
