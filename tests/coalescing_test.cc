// Coalescing-analyzer tests: the strict G80 compute-1.0 half-warp rule plus
// a property sweep against a brute-force oracle.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "hw/device_spec.h"
#include "mem/coalescing.h"
#include "mem_reference.h"

namespace g80 {
namespace {

using ref::Row;

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

// `lanes` active lanes, lane k at base + k*stride_bytes.
Row strided(std::uint64_t base, std::int64_t stride_bytes,
            std::uint32_t size = 4, int lanes = 16) {
  Row r;
  r.mask = lanes == 32 ? ~0u : (1u << lanes) - 1u;
  r.size = size;
  for (int k = 0; k < lanes; ++k)
    r.addrs.push_back(base + static_cast<std::uint64_t>(k * stride_bytes));
  return r;
}

CoalesceResult analyze(const Row& r) { return analyze_warp(kSpec, r.view()); }

TEST(Coalescing, PerfectSequentialAlignedCoalesces) {
  const auto r = analyze(strided(0, 4));
  EXPECT_TRUE(r.coalesced);
  EXPECT_EQ(r.transactions, 1);
  EXPECT_EQ(r.dram_bytes, 64u);
  EXPECT_EQ(r.useful_bytes, 64u);
  EXPECT_DOUBLE_EQ(r.overfetch(), 1.0);
}

TEST(Coalescing, MisalignedByOneWordSerializes) {
  // The strict rule: base must sit on a 16-word boundary (§3.2).  The
  // command cost is one transaction per distinct address; the pins only pay
  // for the unique 32 B segments (row-buffer hits absorb the rest).
  const auto r = analyze(strided(4, 4));
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(r.transactions, 16);        // one per active lane
  EXPECT_EQ(r.dram_bytes, 3u * 32u);    // bytes 4..67 span three segments
  EXPECT_EQ(r.scattered_bytes, r.dram_bytes);
}

TEST(Coalescing, PermutedLanesSerialize) {
  // Lane k must access word k; even a swap of two lanes breaks it on G80.
  auto w = strided(0, 4);
  std::swap(w.addrs[3], w.addrs[4]);
  const auto r = analyze(w);
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(r.transactions, 16);
  EXPECT_EQ(r.dram_bytes, 2u * 32u);  // same two segments as the clean pattern
}

TEST(Coalescing, StridedAccessSerializes) {
  // Stride-2 floats: 16 distinct addresses -> 16 transactions over four
  // 32 B segments.
  const auto r = analyze(strided(0, 8));
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(r.transactions, 16);
  EXPECT_EQ(r.dram_bytes, 4u * 32u);
}

TEST(Coalescing, BroadcastDoesNotCombine) {
  // All 16 lanes read the same word.  Compute-1.0 hardware issues one
  // request per lane (footnote 4's combining did not materialize — the
  // reason broadcast data belongs in constant memory), but the pins only
  // move the one 32 B segment (row-buffer hits).
  const auto r = analyze(strided(128, 0));
  EXPECT_FALSE(r.coalesced);  // not the sequential pattern
  EXPECT_EQ(r.transactions, 16);
  EXPECT_EQ(r.dram_bytes, 32u);
  EXPECT_EQ(r.useful_bytes, 64u);
}

TEST(Coalescing, InactiveLanesLeaveHoles) {
  auto w = strided(0, 4);
  w.mask &= ~((1u << 2) | (1u << 9));
  const auto r = analyze(w);
  EXPECT_TRUE(r.coalesced);  // holes do not break coalescing
  EXPECT_EQ(r.transactions, 1);
  EXPECT_EQ(r.useful_bytes, 14u * 4u);
}

TEST(Coalescing, FullyPredicatedOffIsFree) {
  auto w = strided(0, 4);
  w.mask = 0;
  const auto r = analyze(w);
  EXPECT_EQ(r.transactions, 0);
  EXPECT_EQ(r.dram_bytes, 0u);
}

TEST(Coalescing, EightByteAccessesCoalesceAtDoubleSegment) {
  // float2 accesses: lane k at base + 8k, base aligned to 128 B.
  const auto r = analyze(strided(256, 8, 8));
  EXPECT_TRUE(r.coalesced);
  EXPECT_EQ(r.transactions, 1);
  EXPECT_EQ(r.dram_bytes, 128u);
}

TEST(Coalescing, SixteenByteAccessesCoalesce) {
  const auto r = analyze(strided(512, 16, 16));
  EXPECT_TRUE(r.coalesced);
  EXPECT_EQ(r.dram_bytes, 256u);
}

TEST(Coalescing, UnsupportedWidthSerializes) {
  // 1-byte accesses can never use the 16-word-line path on compute 1.0.
  const auto r = analyze(strided(0, 1, 1));
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(r.transactions, 16);
  EXPECT_EQ(r.dram_bytes, 32u);  // 16 consecutive bytes: one segment
}

TEST(Coalescing, WarpIsTwoIndependentHalfWarps) {
  // First half coalesces, second half is scattered.
  auto w = strided(0, 4, 4, 32);
  for (int k = 16; k < 32; ++k)
    w.addrs[k] = static_cast<std::uint64_t>(1000 + 64 * k);
  const auto r = analyze(w);
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(r.transactions, 1 + 16);
}

TEST(Coalescing, BothHalvesCoalescedWarp) {
  const auto r = analyze(strided(0, 4, 4, 32));
  EXPECT_TRUE(r.coalesced);
  EXPECT_EQ(r.transactions, 2);
  EXPECT_EQ(r.dram_bytes, 128u);
}

// ---- Property sweep vs a brute-force oracle ---------------------------------

// Oracle: coalesced iff every active lane k reads exactly [base+4k, base+4k+4)
// for a 64-byte-aligned base; otherwise one transaction per active lane and
// bytes == unique 32 B segments.
CoalesceResult oracle(const Row& w) {
  CoalesceResult r;
  std::set<std::uint64_t> segs;
  std::uint64_t base = ~0ull;
  bool pattern = true;
  int active = 0;
  for (int k = 0; k < 16; ++k) {
    if (!(w.mask >> k & 1u)) continue;
    ++active;
    segs.insert(w.addrs[k] / 32);
    r.useful_bytes += w.size;
    if (w.size != 4) pattern = false;
    const std::uint64_t b = w.addrs[k] - 4ull * k;
    if (base == ~0ull) base = b;
    if (b != base || base % 64 != 0) pattern = false;
  }
  if (active == 0) return r;
  if (pattern) {
    r.coalesced = true;
    r.transactions = 1;
    r.dram_bytes = 64;
  } else {
    r.transactions = active;
    r.dram_bytes = 32ull * segs.size();
  }
  return r;
}

class CoalescingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoalescingProperty, MatchesOracleOnRandomPatterns) {
  SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    Row w;
    w.addrs.resize(16);
    const std::uint64_t base = 64 * rng.next_below(100);
    const int mode = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < 16; ++k) {
      if (rng.next_below(8) != 0) w.mask |= 1u << k;
      switch (mode) {
        case 0: w.addrs[k] = base + 4ull * k; break;                    // perfect
        case 1: w.addrs[k] = base + 4ull * k + 4; break;                // shifted
        case 2: w.addrs[k] = base + 4ull * rng.next_below(64); break;   // random
        case 3: w.addrs[k] = base; break;                               // broadcast
      }
    }
    const auto got = analyze(w);
    const auto want = oracle(w);
    EXPECT_EQ(got.coalesced, want.coalesced) << "mode " << mode;
    EXPECT_EQ(got.transactions, want.transactions) << "mode " << mode;
    EXPECT_EQ(got.dram_bytes, want.dram_bytes) << "mode " << mode;
    EXPECT_EQ(got.useful_bytes, want.useful_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescingProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace g80
