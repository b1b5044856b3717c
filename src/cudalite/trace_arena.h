// Arena-backed SoA trace storage: the trace pass records every memory access
// here.
//
// Grouping per-lane access streams into warp-level instructions after the
// block (by (site, occurrence), with per-access hash lookups) would dominate
// traced wall time.  The arena avoids it by exploiting one structural fact
// of the BlockRunner's scheduling pass: it runs the lanes of a warp in
// thread-index order, and within a converged warp every lane executes the
// same instruction sequence between barriers.  So the arena reconstructs
// each warp-level memory instruction *positionally while recording*:
//
//   - Each (warp, address space) pair owns a WarpSpaceBatch: SoA columns with
//     one row per warp-level instruction — a packed static key
//     (site | size | store), an active-lane mask, and a lane-striped column
//     of 32-bit device addresses (G80 addresses fit: Device::allocate_range
//     refuses any range that would end past 2^32, and shared offsets are
//     under 16 KiB).  A 32-lane row is 8 + 4 + 32 * 4 = 140 bytes.
//   - The first lane to reach position j appends row j; every later lane
//     whose j-th access carries the same static key claims its mask bit and
//     address slot with a single compare — no hashing, no per-access
//     allocation (row capacity is reused across the blocks a slot traces).
//   - Only the lane that opens a row (or records to overflow) looks its
//     call site up in the block's intern table: a lane that joins row j
//     uses the site row j's creator already interned.
//   - A lane whose j-th access does NOT match row j has diverged from the
//     warp's common instruction stream.  It permanently falls back to a
//     per-lane overflow vector and the stream is marked dirty; the collector
//     then regroups the exact per-lane sequences (prefix rows + overflow)
//     into rows of the same form (WarpSpaceBatch::regroup), so divergent
//     warps reach the same analyzers with exact statistics.
//
// Instruction identity is (key, occurrence of that key in the lane).  Why
// positional matching is exact for clean streams: every lane's matched rows
// form a prefix [0, cursor), so row j groups exactly the lanes whose j-th
// access it is, the shared key prefix makes (key, occurrence) of position j
// identical across lanes, and first-appearance order equals row order.
// tests/trace_oracle_test.cc checks clean rows and regrouped dirty streams
// against a reference grouping.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hw/device_spec.h"
#include "hw/isa.h"

namespace g80 {

// ---------------------------------------------------------------------------
// Address spaces the recorder batches (dense index into TraceArena streams).
// ---------------------------------------------------------------------------

inline constexpr int kNumTraceSpaces = 4;
inline constexpr int kSpaceGlobal = 0;
inline constexpr int kSpaceShared = 1;
inline constexpr int kSpaceConst = 2;
inline constexpr int kSpaceTexture = 3;

// OpClass -> batch space (-1: not a recorded memory access).
constexpr int trace_space_of(OpClass c) {
  switch (c) {
    case OpClass::kLoadGlobal:
    case OpClass::kStoreGlobal: return kSpaceGlobal;
    case OpClass::kLoadShared:
    case OpClass::kStoreShared: return kSpaceShared;
    case OpClass::kLoadConst: return kSpaceConst;
    case OpClass::kLoadTexture: return kSpaceTexture;
    default: return -1;
  }
}

// ---------------------------------------------------------------------------
// Packed static identity of one warp-level memory instruction.  `size` is a
// sizeof(), so bits 32..62 always hold it; bit 63 carries the direction.
// ---------------------------------------------------------------------------

constexpr std::uint64_t pack_trace_key(std::uint32_t site, std::uint32_t size,
                                       bool store) {
  return static_cast<std::uint64_t>(site) |
         (static_cast<std::uint64_t>(size) << 32) |
         (static_cast<std::uint64_t>(store) << 63);
}
constexpr std::uint32_t trace_key_site(std::uint64_t key) {
  return static_cast<std::uint32_t>(key);
}
constexpr std::uint32_t trace_key_size(std::uint64_t key) {
  return static_cast<std::uint32_t>((key >> 32) & 0x7fffffffu);
}
constexpr bool trace_key_store(std::uint64_t key) { return (key >> 63) != 0; }

// One recorded access of a lane that left its warp's positional stream (the
// overflow record), and the unit of a reconstructed lane sequence.
struct MemAccess {
  std::uint32_t addr = 0;  // byte address in the access's address space
  std::uint32_t size = 4;  // access width in bytes (a sizeof())
  std::uint32_t site = 0;  // static call site of the ld/st (source hash)
  bool store = false;      // direction, for the gld_*/gst_* counter split
};

// ---------------------------------------------------------------------------
// Block-level open-addressing site intern table: O(1) "first use this
// block?" queries replacing note_site's per-lane linear scan.  Keys are the
// recorder's 32-bit site hashes; capacity persists across blocks.
// ---------------------------------------------------------------------------

class SiteInterner {
 public:
  // Resets to empty, keeping table capacity.
  void clear();
  // Returns true iff `site` was not in the table (and inserts it).
  bool insert(std::uint32_t site);
  std::size_t size() const { return count_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// One (warp, space) instruction stream.
// ---------------------------------------------------------------------------

struct WarpSpaceBatch {
  static constexpr int kMaxLanes = 32;

  // SoA columns, one row per reconstructed warp-level instruction.
  std::vector<std::uint64_t> keys;   // pack_trace_key(site, size, store)
  std::vector<std::uint32_t> masks;  // bit s: lane s recorded this row
  std::vector<std::uint32_t> addrs;  // row-major, `stride` slots per row

  int stride = kMaxLanes;  // lanes per row (= warp size)
  // Next row index per lane; matched rows always form the prefix [0, cursor).
  std::array<std::uint32_t, kMaxLanes> cursor{};
  // Lanes that mismatched their positional row and record to overflow now.
  std::uint32_t diverged = 0;
  std::array<std::vector<MemAccess>, kMaxLanes> overflow;

  bool dirty() const { return diverged != 0; }
  std::size_t rows() const { return keys.size(); }
  // Bytes one row occupies across the three columns.
  std::size_t row_bytes() const {
    return sizeof(std::uint64_t) + sizeof(std::uint32_t) +
           static_cast<std::size_t>(stride) * sizeof(std::uint32_t);
  }
  const std::uint32_t* row_addrs(std::size_t row) const {
    return addrs.data() + row * static_cast<std::size_t>(stride);
  }

  void reset(int warp_size) {
    keys.clear();
    masks.clear();
    addrs.clear();
    stride = warp_size;
    cursor.fill(0);
    if (diverged != 0) {
      for (auto& o : overflow) o.clear();
      diverged = 0;
    }
  }

  // The recorder hot path: positional prefix matching.  Returns true iff
  // the lane joined a row an earlier lane opened (so that lane has already
  // noted `site`); false when it opened a new row or recorded to overflow.
  bool record(int sub, std::uint32_t site, std::uint32_t size, bool store,
              std::uint32_t addr) {
    const std::uint32_t bit = 1u << sub;
    if (diverged & bit) {
      overflow[sub].push_back({addr, size, site, store});
      return false;
    }
    const std::uint64_t key = pack_trace_key(site, size, store);
    std::uint32_t& cur = cursor[sub];
    if (cur < keys.size()) {
      if (keys[cur] == key) {
        masks[cur] |= bit;
        addrs[cur * static_cast<std::size_t>(stride) + sub] = addr;
        ++cur;
        return true;
      }
      // This lane left the warp's common stream: record it (and everything
      // it does from now on in this space) per-lane; the collector regroups.
      diverged |= bit;
      overflow[sub].push_back({addr, size, site, store});
      return false;
    }
    // cur == rows(): this lane extends the stream with a new row.
    const std::size_t row = append_row(key);
    masks[row] = bit;
    addrs[row * static_cast<std::size_t>(stride) + sub] = addr;
    ++cur;
    return false;
  }

  // Appends an empty row (no lane active) for `key`; returns its index.
  std::size_t append_row(std::uint64_t key) {
    keys.push_back(key);
    masks.push_back(0);
    addrs.resize(addrs.size() + static_cast<std::size_t>(stride));
    return keys.size() - 1;
  }

  // Exact per-lane access sequence: the matched prefix rows, then the
  // overflow tail.
  void reconstruct_lane(int sub, std::vector<MemAccess>* out) const;

  // Regroups lanes [0, lane_count)'s exact sequences into `out` (reset
  // first): one row per (key, occurrence of that key in the lane), in
  // first-appearance order over lanes in thread order.  On a clean stream
  // this reproduces its own rows; the collector calls it on dirty streams,
  // whose rows hold only the matched prefixes.  Lanes at one site with
  // different widths or directions land in separate rows, as they do
  // positionally.
  void regroup(int lane_count, WarpSpaceBatch* out) const;
};

// ---------------------------------------------------------------------------
// Per-block arena: one WarpSpaceBatch per (warp, space) plus the site intern
// table.  One arena per worker slot; all capacity is reused block-to-block.
// ---------------------------------------------------------------------------

class TraceArena {
 public:
  // Whether 32-bit lane masks cover a warp and it splits into half-warps;
  // launches reject any other warp size up front.
  static bool supports_warp_size(int warp_size) {
    return warp_size >= 2 && warp_size <= WarpSpaceBatch::kMaxLanes &&
           warp_size % 2 == 0;
  }

  // Prepares for one block of `num_lanes` (>= 1) threads.
  void begin_block(const DeviceSpec& spec, int num_lanes);

  int warp_size() const { return warp_size_; }
  int num_warps() const { return num_warps_; }

  WarpSpaceBatch* stream(int warp, int space) {
    return &streams_[static_cast<std::size_t>(warp) * kNumTraceSpaces + space];
  }
  const WarpSpaceBatch& stream(int warp, int space) const {
    return streams_[static_cast<std::size_t>(warp) * kNumTraceSpaces + space];
  }

  // O(1) note_site support: true iff this block has not seen `site` yet.
  bool intern_site(std::uint32_t site) {
    ++site_lookups_;
    return sites_.insert(site);
  }

  // Exact work counters of the block recorded so far: intern-table lookups,
  // and bytes of the SoA rows the recorder appended across all streams.
  std::uint64_t site_lookups() const { return site_lookups_; }
  std::uint64_t row_bytes() const;

 private:
  std::vector<WarpSpaceBatch> streams_;
  SiteInterner sites_;
  std::uint64_t site_lookups_ = 0;
  int warp_size_ = 0;
  int num_warps_ = 0;
};

}  // namespace g80
