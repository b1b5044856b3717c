// The warp-level access row every G80 memory-rule analyzer consumes.
#pragma once

#include <algorithm>
#include <cstdint>

namespace g80 {

// One warp-level memory instruction, as one row of a trace-arena batch
// (cudalite/trace_arena.h): the static key fixes one access width for the
// whole warp, active lanes are a bit mask, and only the addresses vary per
// lane.  Positionally matched rows and regrouped (diverged) streams both
// reach the analyzers in this form, so each rule has exactly one analyzer.
// Addresses are 32-bit, as G80 device addresses are; the analyzers widen
// each one to 64 bits on load, so no sum or product they form can wrap.
struct SoaWarpAccess {
  std::uint32_t mask = 0;   // bit i: lane i active
  std::uint32_t size = 0;   // uniform access width in bytes
  const std::uint32_t* addrs = nullptr;  // lane i at addrs[i] (valid iff bit)
  int lanes = 0;            // warp size (<= 32)
};

// Inclusive run [lo, hi] of consecutive units (32-byte DRAM segments or
// 4-byte shared-memory words) one lane's access touches.  Deliberately
// trivial: the analyzers' per-half-warp span arrays are scratch that
// push_span writes before anything reads it, and zeroing them would cost
// as much as a broadcast row's whole analysis.
struct Span {
  std::uint64_t lo;
  std::uint64_t hi;
};

// Appends `s` to spans[0, n), or extends the last span when `s` starts
// inside it or right after it.  Lanes usually ascend or repeat, so most rows
// collapse here and leave merge_spans little to sort.
inline void push_span(Span* spans, int& n, Span s) {
  Span& last = spans[n > 0 ? n - 1 : 0];
  if (n > 0 && s.lo >= last.lo && s.lo <= last.hi + 1) {
    last.hi = std::max(last.hi, s.hi);
  } else {
    spans[n++] = s;
  }
}

// Sorts spans[0, n) and merges overlapping or touching ones in place;
// returns how many disjoint spans are left, in ascending order.  The
// analyzers count distinct segments and words exactly from this union of
// at most one span per lane.
inline int merge_spans(Span* spans, int n) {
  std::sort(spans, spans + n,
            [](const Span& a, const Span& b) { return a.lo < b.lo; });
  int merged = 0;
  for (int i = 0; i < n; ++i) {
    if (merged > 0 && spans[i].lo <= spans[merged - 1].hi + 1) {
      spans[merged - 1].hi = std::max(spans[merged - 1].hi, spans[i].hi);
    } else {
      spans[merged++] = spans[i];
    }
  }
  return merged;
}

}  // namespace g80
