// Arena-backed SoA trace storage: the trace pass records every memory
// access, branch outcome and barrier here, plus each lane's instruction
// counts.
//
// Grouping per-lane streams into warp-level instructions after the block
// (by (site, occurrence), with per-event hash lookups) would dominate traced
// wall time.  The arena avoids it by exploiting one structural fact of the
// BlockRunner's scheduling pass: it runs the lanes of a warp in thread-index
// order, and within a converged warp every lane executes the same
// instruction sequence between barriers.  So the arena reconstructs each
// warp-level instruction *positionally while recording*:
//
//   - Each (warp, stream) pair owns a WarpSpaceBatch: SoA columns with one
//     row per warp-level instruction — a packed static key
//     (site | size | store), an active-lane mask, and a lane-striped column
//     of 32-bit values.  A 32-lane row is 8 + 4 + 32 * 4 = 140 bytes.
//   - Four streams are memory spaces; a lane's value is the access's device
//     address (G80 addresses fit: Device::allocate_range refuses any range
//     that would end past 2^32, and shared offsets are under 16 KiB).
//   - Two streams are control flow: kSpaceBranch holds one row per
//     warp-level conditional branch, each lane's value being its outcome
//     (0 or 1); kSpaceSync holds one row per warp-level bar.sync (value 0).
//     Their keys have size 0, which no memory access has (a sizeof() is at
//     least 1), so a control key never equals a memory key.
//   - The first lane to reach position j appends row j; every later lane
//     whose j-th event carries the same static key claims its mask bit and
//     value slot with a single compare — no hashing, no per-event
//     allocation (row capacity is reused across the blocks a slot traces).
//   - Only the lane that opens a row (or records to overflow) looks its
//     call site up in the block's intern table: a lane that joins row j
//     uses the site row j's creator already interned.
//   - A lane whose j-th event does NOT match row j has diverged from the
//     warp's common instruction stream.  It permanently falls back to a
//     per-lane overflow vector and the stream is marked dirty; the collector
//     then regroups the exact per-lane sequences (prefix rows + overflow)
//     into rows of the same form (WarpSpaceBatch::regroup), so divergent
//     warps reach the same analyzers with exact statistics.
//   - The arena holds only rows not yet final.  Row j is final once every
//     lane of the warp has moved its cursor past it (a diverged lane counts
//     at its frozen cursor), because cursors only grow; the collector
//     (cudalite/trace_collect.h) analyzes and drops those rows at every
//     barrier release (WarpSpaceBatch::final_rows / drop_front), and a
//     warp's whole streams once its last lane exits.  So a tiled kernel's
//     block holds about one barrier interval of rows, not its whole trace.
//
// Instruction identity is (key, occurrence of that key in the lane).  Why
// positional matching is exact for clean streams: every lane's matched rows
// form a prefix [0, cursor), so row j groups exactly the lanes whose j-th
// event it is, the shared key prefix makes (key, occurrence) of position j
// identical across lanes, and first-appearance order equals row order.  The
// same holds per stream, so a branch row is one dynamic warp branch and the
// rows of a sync stream at one site number the most times any lane of the
// warp crossed it.  Final rows are also the common prefix of every lane's
// sequence, so every key occurs equally often in each lane's dropped part,
// and regrouping what is left of a dirty stream gives the rows a regroup of
// the whole stream would give after that prefix.  tests/trace_oracle_test.cc
// checks clean rows and regrouped dirty streams, memory and control, against
// reference groupings, and a drained block against the undrained one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "hw/device_spec.h"
#include "hw/isa.h"

namespace g80 {

// ---------------------------------------------------------------------------
// Streams the recorder batches per warp (dense index into TraceArena
// streams): the four address spaces, then branches and barriers.
// ---------------------------------------------------------------------------

inline constexpr int kNumTraceSpaces = 6;
inline constexpr int kSpaceGlobal = 0;
inline constexpr int kSpaceShared = 1;
inline constexpr int kSpaceConst = 2;
inline constexpr int kSpaceTexture = 3;
inline constexpr int kSpaceBranch = 4;
inline constexpr int kSpaceSync = 5;

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
// Packed static identity of one warp-level instruction.  `size` is a
// sizeof() for a memory access (so bits 32..62 always hold it) and 0 for a
// branch or barrier; bit 63 carries a memory access's direction.
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

// One recorded event of a lane that left its warp's positional stream (the
// overflow record), and the unit of a reconstructed lane sequence.  On a
// control stream `addr` is the lane's value (a branch outcome) and `size`
// is 0.
struct MemAccess {
  std::uint32_t addr = 0;  // byte address in the access's address space
  std::uint32_t size = 4;  // access width in bytes (a sizeof())
  std::uint32_t site = 0;  // static call site of the ld/st (source hash)
  bool store = false;      // direction, for the gld_*/gst_* counter split
};

// Source position of one recorder call site, kept from the site's first
// use in a block so the collector can translate site hashes back to
// file:line for attribution.  `file` is std::source_location's static
// string; no ownership.
struct SiteNote {
  std::uint32_t site = 0;
  const char* file = "";
  std::uint32_t line = 0;
};

// ---------------------------------------------------------------------------
// Block-level open-addressing site intern table: O(1) "first use this
// block?" queries, and each site's note beside it.  Keys are the recorder's
// 32-bit site hashes; capacity persists across blocks.
// ---------------------------------------------------------------------------

class SiteInterner {
 public:
  // Resets to empty, keeping table capacity.
  void clear();
  // Inserts `note.site` with `note`, unless the table already holds it.
  void insert(const SiteNote& note);
  // The note `site` was inserted with, or nullptr.
  const SiteNote* find(std::uint32_t site) const;

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  // Slot of `site`: where it sits, or the empty slot it would take.
  std::size_t probe(std::uint32_t site) const;
  void grow();

  std::vector<std::uint64_t> slots_;  // site | (index into notes_) << 32
  std::vector<SiteNote> notes_;       // in insertion order
};

// ---------------------------------------------------------------------------
// One (warp, stream) instruction stream.
// ---------------------------------------------------------------------------

struct WarpSpaceBatch {
  static constexpr int kMaxLanes = 32;

  // SoA columns, one row per reconstructed warp-level instruction.
  std::vector<std::uint64_t> keys;   // pack_trace_key(site, size, store)
  std::vector<std::uint32_t> masks;  // bit s: lane s recorded this row
  std::vector<std::uint32_t> addrs;  // row-major, `stride` slots per row
                                     // (address, or a branch's outcome)

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
      // it does from now on in this stream) per-lane; the collector
      // regroups.
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

  // Rows every lane in [0, lane_count) has moved past: final, and the
  // common prefix of all their sequences.
  std::uint32_t final_rows(int lane_count) const {
    std::uint32_t n = cursor[0];
    for (int k = 1; k < lane_count; ++k) n = std::min(n, cursor[k]);
    return n;
  }

  // Drops rows [0, n), n <= final_rows(lane_count), and rebases the lanes'
  // cursors; overflow tails stay.
  void drop_front(std::size_t n, int lane_count);

  // Swaps row storage (capacity) with `other`; both must hold no rows.
  void swap_storage(WarpSpaceBatch& other) {
    keys.swap(other.keys);
    masks.swap(other.masks);
    addrs.swap(other.addrs);
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
// Per-block arena: one WarpSpaceBatch per (warp, stream), each lane's
// instruction counts, and the site intern table.  One arena per worker
// slot of a launch; all capacity is reused block-to-block.
// ---------------------------------------------------------------------------

// One lane's dynamic instruction-class counts and flops.
struct LaneCounts {
  OpCounts ops;
  double flops = 0;
};

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
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  WarpSpaceBatch* stream(int warp, int space) {
    return &streams_[static_cast<std::size_t>(warp) * kNumTraceSpaces + space];
  }
  const WarpSpaceBatch& stream(int warp, int space) const {
    return streams_[static_cast<std::size_t>(warp) * kNumTraceSpaces + space];
  }

  LaneCounts* lane(int lane_id) {
    return &lanes_[static_cast<std::size_t>(lane_id)];
  }
  const LaneCounts& lane(int lane_id) const {
    return lanes_[static_cast<std::size_t>(lane_id)];
  }

  // O(1) note_site support: keeps `note` for site_note() if this block has
  // not seen `note.site` yet.
  void intern_site(const SiteNote& note) {
    ++site_lookups_;
    sites_.insert(note);
  }
  // The note `site` was first interned with this block, or nullptr.
  const SiteNote* site_note(std::uint32_t site) const {
    return sites_.find(site);
  }

  // Intern-table lookups of the block recorded so far (an exact work
  // counter), and bytes of the SoA rows its streams hold now: appended and
  // not yet dropped.
  std::uint64_t site_lookups() const { return site_lookups_; }
  std::uint64_t held_row_bytes() const;

 private:
  std::vector<WarpSpaceBatch> streams_;
  std::vector<LaneCounts> lanes_;
  SiteInterner sites_;
  std::uint64_t site_lookups_ = 0;
  int warp_size_ = 0;
  int num_warps_ = 0;
};

}  // namespace g80
