// Per-SM texture cache model (read-only, spatially-local).
//
// The paper's PNS case study (§5.2) moves read-only, irregularly-indexed
// tables into texture memory and gains 2.8x over uncached global access.
// We model an 8 KB, 32 B-line, LRU set-associative cache per SM: hits cost a
// short latency, misses cost a full DRAM round trip but fill a whole line so
// spatial locality pays.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/device_spec.h"
#include "mem/access.h"

namespace g80 {

class TextureCache {
 public:
  explicit TextureCache(const DeviceSpec& spec, int ways = 4);

  // Returns true on hit; on miss the line is filled (LRU eviction).
  bool access(std::uint64_t addr);

  // One warp-level texture instruction (one SoA trace-arena row).  Probes
  // active lanes in lane order (cache state is order-sensitive), exactly as
  // per-lane access() calls would.
  struct WarpResult {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  WarpResult access_warp(const SoaWarpAccess& row);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const;
  void reset_stats();

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  std::size_t line_bytes_;
  std::size_t num_sets_;
  int ways_;
  std::vector<Line> lines_;  // sets x ways
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace g80
