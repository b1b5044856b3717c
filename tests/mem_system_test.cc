// Tests for the shared-memory bank-conflict analyzer, the constant-cache
// broadcast model, the texture cache and the DRAM model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "hw/device_spec.h"
#include "mem/bank_conflict.h"
#include "mem/const_cache.h"
#include "mem/dram.h"
#include "mem/texture_cache.h"
#include "mem_reference.h"

namespace g80 {
namespace {

using ref::Row;

const DeviceSpec kSpec = DeviceSpec::geforce_8800_gtx();

// `lanes` active lanes, lane k at byte address addr(k).
template <class Addr>
Row row_of(Addr addr, std::uint32_t size = 4, int lanes = 16) {
  Row r;
  r.mask = lanes == 32 ? ~0u : (1u << lanes) - 1u;
  r.size = size;
  for (int k = 0; k < lanes; ++k) r.addrs.push_back(addr(k));
  return r;
}

// A half-warp whose first lanes read the listed words; the rest are off.
Row row_with_words(std::initializer_list<std::uint64_t> words) {
  Row r;
  for (std::uint64_t word : words) {
    r.mask |= 1u << r.addrs.size();
    r.addrs.push_back(word * 4);
  }
  r.addrs.resize(16);
  return r;
}

int shared_passes(const Row& r) {
  return analyze_shared_warp(kSpec, r.view()).passes;
}

int const_passes(const Row& r) {
  return analyze_const_warp(kSpec, r.view()).passes;
}

// ---- Shared-memory banks ------------------------------------------------------

TEST(BankConflict, SequentialWordsConflictFree) {
  EXPECT_EQ(shared_passes(row_of([](int k) { return 4ull * k; })), 1);
}

TEST(BankConflict, SameWordBroadcasts) {
  EXPECT_EQ(shared_passes(row_of([](int) { return 128ull; })), 1);
}

TEST(BankConflict, StrideTwoGivesTwoWay) {
  // Words 0,2,4,...,30: banks 0,2,...,14 each hit twice with distinct words.
  EXPECT_EQ(shared_passes(row_of([](int k) { return 8ull * k; })), 2);
}

TEST(BankConflict, StrideSixteenIsWorstCase) {
  // All 16 lanes in bank 0 with distinct words: 16-way serialization.
  EXPECT_EQ(shared_passes(row_of([](int k) { return 64ull * k; })), 16);
}

TEST(BankConflict, OddStrideConflictFree) {
  // Classic fix: any odd word stride is conflict-free across 16 banks.
  for (int stride : {1, 3, 5, 7, 9, 11, 13, 15, 17}) {
    const auto w = row_of([&](int k) { return 4ull * stride * k; });
    EXPECT_EQ(shared_passes(w), 1) << "stride " << stride;
  }
}

TEST(BankConflict, EvenStridesConflict) {
  for (int stride : {2, 4, 8, 16}) {
    const auto w = row_of([&](int k) { return 4ull * stride * k; });
    EXPECT_GT(shared_passes(w), 1) << "stride " << stride;
  }
}

TEST(BankConflict, PartialBroadcastStillConflicts) {
  // 15 lanes on word 0, one lane on word 16 (same bank, different word):
  // two passes.
  EXPECT_EQ(shared_passes(row_with_words(
                {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16})),
            2);
}

TEST(BankConflict, WarpCostSumsHalfWarps) {
  const auto w = row_of(
      [](int k) {
        return k < 16 ? 4ull * k            // clean
                      : 64ull * (k - 16);   // 16-way
      },
      4, 32);
  const auto cost = analyze_shared_warp(kSpec, w.view());
  EXPECT_EQ(cost.passes, 1 + 16);
  EXPECT_EQ(cost.extra_passes, (1 - 1) + (16 - 1));
}

TEST(BankConflict, Float2SpansTwoBanks) {
  // 8-byte accesses at stride 8 touch banks (2k, 2k+1): conflict-free for a
  // half-warp only up to 8 lanes; 16 lanes wrap and collide with distinct
  // words -> 2-way.
  EXPECT_EQ(shared_passes(row_of([](int k) { return 8ull * k; }, 8)), 2);
}

// ---- Constant cache -----------------------------------------------------------

TEST(ConstCache, UniformAddressBroadcasts) {
  EXPECT_EQ(const_passes(row_of([](int) { return 1024ull; })), 1);
}

TEST(ConstCache, DistinctAddressesSerialize) {
  EXPECT_EQ(const_passes(row_of([](int k) { return 4ull * k; })), 16);
}

TEST(ConstCache, PartialDivergenceCostsDistinctCount) {
  EXPECT_EQ(const_passes(row_with_words(
                {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})),
            4);
}

TEST(ConstCache, WarpExtraPasses) {
  const auto w =
      row_of([](int k) { return k < 16 ? 0ull : 4ull * k; }, 4, 32);
  const auto cost = analyze_const_warp(kSpec, w.view());
  EXPECT_EQ(cost.passes, 1 + 16);
  EXPECT_EQ(cost.extra_passes, (1 - 1) + (16 - 1));
}

// ---- Texture cache ------------------------------------------------------------

TEST(TextureCache, SpatialLocalityHits) {
  TextureCache cache(kSpec);
  // 32-byte lines: 8 consecutive floats share a line.
  EXPECT_FALSE(cache.access(0));   // cold miss
  for (int i = 1; i < 8; ++i) EXPECT_TRUE(cache.access(4 * i));
  EXPECT_FALSE(cache.access(32));  // next line
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 7.0 / 9.0);
}

TEST(TextureCache, RepeatedSmallTableStaysResident) {
  TextureCache cache(kSpec);
  // A 1 KB table fits in the 8 KB cache: after one pass everything hits.
  for (int i = 0; i < 256; ++i) cache.access(4 * i);
  cache.reset_stats();
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 256; ++i) cache.access(4 * i);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(TextureCache, StreamLargerThanCacheThrashes) {
  TextureCache cache(kSpec);
  // 64 KB stream through an 8 KB cache, revisited: all misses.
  for (int rep = 0; rep < 2; ++rep)
    for (std::uint64_t a = 0; a < 64 * 1024; a += 32) cache.access(a);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TextureCache, LruEvictsOldest) {
  TextureCache cache(kSpec, /*ways=*/2);
  const std::uint64_t set_stride = 8 * 1024 / 2;  // maps to the same set
  cache.access(0);
  cache.access(set_stride);
  EXPECT_TRUE(cache.access(0));            // refresh line 0
  cache.access(2 * set_stride);            // evicts set_stride (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(set_stride));  // was evicted
}

// ---- DRAM model ----------------------------------------------------------------

TEST(Dram, CoalescedBandwidthCycles) {
  const DramModel dram(kSpec);
  DramTraffic t;
  t.bytes = static_cast<std::uint64_t>(kSpec.dram_bandwidth_gbs *
                                       kSpec.dram_efficiency * 1e9);
  // Exactly one second worth of coalesced traffic = one second of cycles.
  EXPECT_NEAR(dram.bandwidth_cycles(t) / (kSpec.core_clock_ghz * 1e9), 1.0,
              1e-9);
}

TEST(Dram, ScatteredTrafficCostsMore) {
  const DramModel dram(kSpec);
  DramTraffic seq{0, 1 << 20, 0};
  DramTraffic rnd{0, 1 << 20, 1 << 20};
  EXPECT_GT(dram.bandwidth_cycles(rnd), 2.0 * dram.bandwidth_cycles(seq));
}

TEST(Dram, DepartureDelayMatchesTransactionSize) {
  const DramModel dram(kSpec);
  const double bpc = dram.effective_bandwidth_gbs() / kSpec.core_clock_ghz;
  EXPECT_NEAR(dram.departure_delay_cycles(), 32.0 / bpc, 1e-12);
}

}  // namespace
}  // namespace g80
