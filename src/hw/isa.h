// PTX-granularity instruction classes.
//
// The paper estimates performance by counting PTX instruction classes (the
// fraction of fused multiply-adds bounds issue-limited throughput; the
// fraction of global loads bounds bandwidth-limited throughput).  The tracing
// context classifies every dynamic operation into one of these classes and
// the timing model charges issue cycles per class.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "hw/device_spec.h"

namespace g80 {

enum class OpClass : std::uint8_t {
  kFMad,         // fused multiply-add (2 flops)
  kFAdd,         // FP add/sub (1 flop)
  kFMul,         // FP multiply (1 flop)
  kFCmp,         // FP compare / min / max
  kIAlu,         // integer add/shift/logic (address math, induction vars)
  kIMul,         // integer multiply (slower on G80; strength-reduction target)
  kSfu,          // rcp/rsqrt/sin/cos/exp/log on the special function units
  kLoadGlobal,   // ld.global
  kStoreGlobal,  // st.global
  kLoadShared,   // ld.shared
  kStoreShared,  // st.shared
  kLoadConst,    // ld.const (cached, broadcast)
  kLoadTexture,  // tex fetch
  kSync,         // bar.sync
  kBranch,       // conditional/unconditional branch
  kMisc,         // mov, cvt, setp, ...
  kCount
};

inline constexpr std::size_t kNumOpClasses = static_cast<std::size_t>(OpClass::kCount);

std::string_view op_class_name(OpClass c);

// Floating-point operations contributed by one *lane* executing one
// instruction of this class (MAD = 2, others 1 or 0).
double flops_per_lane(OpClass c);

// Cycles for an SM to issue one warp-wide instruction of this class.
// SP-executed classes take warp_size/sps cycles (4 on the GTX), SFU classes
// warp_size/sfus (16), integer multiply is 4x an IALU op on G80.
double issue_cycles(OpClass c, const DeviceSpec& spec);

// Dense per-class counters.
struct OpCounts {
  std::array<std::uint64_t, kNumOpClasses> counts{};

  std::uint64_t& operator[](OpClass c) { return counts[static_cast<std::size_t>(c)]; }
  std::uint64_t operator[](OpClass c) const { return counts[static_cast<std::size_t>(c)]; }

  OpCounts& operator+=(const OpCounts& o);
  // Exact equality — part of TraceSummary's, which the invariant fuzzer holds
  // block-parallel traces to.
  bool operator==(const OpCounts&) const = default;
  std::uint64_t total() const;
  // Total dynamic floating-point operations (per lane counts already folded in).
  double flops() const;
  // Issue cycles for one warp executing these counts once per instruction.
  double warp_issue_cycles(const DeviceSpec& spec) const;
};

}  // namespace g80
