// Global-memory coalescing analyzer implementing the G80 (compute 1.0/1.1)
// half-warp rule the paper's principle "reorder accesses to off-chip memory
// to combine requests to the same or contiguous memory locations" refers to.
//
// Rule (per half-warp of 16 lanes):
//   the access is COALESCED into one transaction iff every active lane k
//   accesses a `size`-byte word at base + k*size, with base aligned to
//   16*size bytes (a "16-word line", §3.2).  Inactive lanes leave holes but
//   do not break coalescing.  Otherwise the half-warp is serialized into one
//   transaction per active lane.
//
// Each transaction moves at least `dram_transaction_bytes` (32 B) from DRAM,
// which is how an uncoalesced stream wastes most of the 86.4 GB/s.  A
// serialized half-warp's bytes are the distinct 32 B segments its lanes
// touch, counted exactly at any access width.  One warp-level instruction
// has one width: lanes at one site with different widths are separate
// instructions (cudalite/trace_arena.h).
#pragma once

#include <cstdint>

#include "hw/device_spec.h"
#include "mem/access.h"

namespace g80 {

struct CoalesceResult {
  int transactions = 0;             // DRAM requests issued
  std::uint64_t dram_bytes = 0;     // bytes actually moved (>= useful bytes)
  std::uint64_t scattered_bytes = 0;  // subset moved by serialized accesses
  std::uint64_t useful_bytes = 0;   // bytes the program asked for
  bool coalesced = false;           // single-transaction half-warps only

  CoalesceResult& operator+=(const CoalesceResult& o);
  // dram_bytes / useful_bytes; 1.0 is perfect, 8.0 means 4-byte loads each
  // dragging a 32-byte transaction.
  double overfetch() const;
};

// Analyze one warp-level instruction (one SoA trace-arena row) as two
// independent half-warps (G80 issues memory per half-warp).
CoalesceResult analyze_warp(const DeviceSpec& spec, const SoaWarpAccess& row);

}  // namespace g80
