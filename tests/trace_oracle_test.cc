// Unit-level oracles for the trace pipeline.
//
//  - Analyzers: every G80 memory-rule analyzer (one SoA trace-arena row)
//    must produce exactly what the std::set reference rules in
//    tests/mem_reference.h produce on the same lanes — for coalescing, bank
//    conflicts (including the half-warp shapes the bank analyzer answers
//    before building spans, and their near misses) and constant broadcast —
//    and the texture cache's warp probe must match per-lane probes of a
//    fresh cache in the same order.
//  - Arena: random per-lane access sequences recorded through
//    WarpSpaceBatch::record in thread order must come back out exactly:
//    reconstruct_lane(k) is lane k's input, and the rows the analyzers read
//    (a clean stream's own rows, a dirty stream's regroup) are the
//    reference (key, occurrence) grouping of the inputs.  The key space
//    includes width 0, the width of the control streams' keys.
//  - Control streams: random per-lane branch outcomes and barriers
//    recorded through LaneRecorder in thread order must give, through
//    TraceCollector, the reference branch, divergent-branch and
//    per-site barrier counts of tests/mem_reference.h.
//  - Drains: a random block over every stream, recorded in thread order
//    with lanes exiting early (diverged ones included), collected with
//    drains at random barrier releases and at warp completions, must give
//    exactly the BlockTrace of the same block collected at block end only.
//
// Inputs vary active masks, access widths from 1 B to 256 B (wide enough
// that one half-warp touches hundreds of segments or words), aligned /
// strided / scattered addresses, warp sizes 2..32, and — for the arena —
// divergent trip counts, mixed sizes at one site, branch-arm-specific sites
// and barrier phases.  Fixed seeds keep failures reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <source_location>
#include <tuple>
#include <vector>

#include "cudalite/recorder.h"
#include "cudalite/trace_arena.h"
#include "cudalite/trace_collect.h"
#include "hw/device_spec.h"
#include "mem/bank_conflict.h"
#include "mem/coalescing.h"
#include "mem/const_cache.h"
#include "mem/texture_cache.h"
#include "mem_reference.h"

namespace g80 {
namespace {

DeviceSpec spec_with_warp(int warp_size) {
  DeviceSpec spec = DeviceSpec::geforce_8800_gtx();
  spec.warp_size = warp_size;
  return spec;
}

int random_warp_size(std::mt19937& rng) {
  return 2 * std::uniform_int_distribution<int>(1, 16)(rng);
}

// Key widths of the arena: 0 (a branch or barrier) and common sizeof()s.
std::uint32_t random_size(std::mt19937& rng) {
  constexpr std::uint32_t kSizes[] = {0, 4, 8, 16};
  return kSizes[std::uniform_int_distribution<int>(0, 3)(rng)];
}

// Every width a kernel's sizeof(T) might give, up to far past the 32-byte
// segment: 48 B and up spill a lane across several segments or banks.
std::uint32_t random_width(std::mt19937& rng) {
  constexpr std::uint32_t kWidths[] = {1, 2, 4, 8, 12, 16, 48, 128, 256};
  return kWidths[std::uniform_int_distribution<int>(0, 8)(rng)];
}

// ---- Analyzer oracle --------------------------------------------------------

// One warp instruction as reference lanes and as an SoA row.  Inactive
// lanes' row address slots hold garbage, so an analyzer that reads them
// shows up as a mismatch.
struct WarpCase {
  ref::Warp lanes;
  ref::Row row;
};

WarpCase random_warp(std::mt19937& rng, int ws, std::uint64_t range) {
  WarpCase c;
  const std::uint32_t full = ws == 32 ? ~0u : (1u << ws) - 1u;
  std::uint32_t mask = 0;
  switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
    case 0: mask = full; break;
    case 1: mask = 0; break;
    default: mask = static_cast<std::uint32_t>(rng()) & full; break;
  }
  const std::uint32_t size = random_width(rng);
  // Aligned line, a small stride (2 = bank/segment conflicts), one shared
  // address (broadcast), or scattered.
  const int pattern = std::uniform_int_distribution<int>(0, 3)(rng);
  const std::uint64_t line = 16ull * size;
  std::uint64_t base =
      std::uniform_int_distribution<std::uint64_t>(0, range / 2)(rng);
  if (pattern == 0) base -= base % line;
  const std::uint64_t stride = std::uniform_int_distribution<int>(1, 3)(rng);

  c.lanes.assign(static_cast<std::size_t>(ws), ref::Lane{});
  c.row.mask = mask;
  c.row.size = size;
  c.row.addrs.assign(static_cast<std::size_t>(ws), 0xdeadbeefull);
  for (int k = 0; k < ws; ++k) {
    if (!(mask & (1u << k))) continue;
    std::uint64_t addr = 0;
    switch (pattern) {
      case 0: addr = base + static_cast<std::uint64_t>(k) * size; break;
      case 1: addr = base + static_cast<std::uint64_t>(k) * stride * size; break;
      case 2: addr = base; break;
      default:
        addr = std::uniform_int_distribution<std::uint64_t>(0, range)(rng) /
               size * size;
        break;
    }
    c.row.addrs[static_cast<std::size_t>(k)] = addr;
    c.lanes[static_cast<std::size_t>(k)] = {addr, size, true};
  }
  return c;
}

// Half-warp shapes the bank-conflict analyzer answers before it builds
// spans (every active lane on one word; a unit-stride run of width <= 4 and
// at most `banks` words), and a near miss of each that serializes: one lane
// moved `banks` words off the broadcast word or past the run's end, into a
// bank another lane already uses.
enum SharedShape { kBroadcast, kUnitRun, kBroadcastMiss, kRunMiss, kShapes };

WarpCase shared_shape_warp(std::mt19937& rng, int ws, int banks,
                           SharedShape shape) {
  const int hw = ws / 2;
  const std::uint32_t full = ws == 32 ? ~0u : (1u << ws) - 1u;
  const bool miss = shape == kBroadcastMiss || shape == kRunMiss;
  WarpCase c;
  c.row.mask = miss ? full : static_cast<std::uint32_t>(rng()) & full;
  constexpr std::uint32_t kNarrow[] = {1, 2, 4};
  c.row.size = miss ? 4 : kNarrow[rng() % 3];
  c.row.addrs.assign(static_cast<std::size_t>(ws), 0xdeadbeefu);
  c.lanes.assign(static_cast<std::size_t>(ws), ref::Lane{});
  for (int lo = 0; lo < ws; lo += hw) {
    const std::uint32_t base_word = static_cast<std::uint32_t>(rng() % 3000);
    for (int j = 0; j < hw; ++j) {
      const int k = lo + j;
      if (!(c.row.mask & (1u << k))) continue;
      const bool last = j == hw - 1;
      std::uint32_t addr = 0;
      switch (shape) {
        case kBroadcast: addr = base_word * 4; break;
        case kUnitRun:
          addr = base_word * 4 + static_cast<std::uint32_t>(j) * c.row.size;
          break;
        case kBroadcastMiss:
          addr = (base_word + (last ? banks : 0)) * 4;
          break;
        default:
          addr = (base_word + (last ? banks : j)) * 4;
          break;
      }
      c.row.addrs[static_cast<std::size_t>(k)] = addr;
      c.lanes[static_cast<std::size_t>(k)] = {addr, c.row.size, true};
    }
  }
  return c;
}

TEST(AnalyzerOracle, AnalyzersMatchReferenceRules) {
  std::mt19937 rng(20080220);
  int wide_global = 0, wide_shared = 0;
  for (int it = 0; it < 3000; ++it) {
    const int ws = random_warp_size(rng);
    const DeviceSpec spec = spec_with_warp(ws);

    const WarpCase g = random_warp(rng, ws, 1 << 20);
    const CoalesceResult a = ref::analyze_warp(spec, g.lanes);
    const CoalesceResult b = analyze_warp(spec, g.row.view());
    EXPECT_EQ(a.transactions, b.transactions) << "ws=" << ws << " it=" << it;
    EXPECT_EQ(a.dram_bytes, b.dram_bytes) << "ws=" << ws << " it=" << it;
    EXPECT_EQ(a.scattered_bytes, b.scattered_bytes) << "ws=" << ws;
    EXPECT_EQ(a.useful_bytes, b.useful_bytes) << "ws=" << ws << " it=" << it;
    EXPECT_EQ(a.coalesced, b.coalesced) << "ws=" << ws << " it=" << it;
    wide_global += g.row.size > 96 && g.row.mask != 0;

    const WarpCase s = random_warp(rng, ws, spec.shared_mem_per_sm);
    const ref::WarpPasses sa = ref::analyze_shared_warp(spec, s.lanes);
    const WarpBankCost sb = analyze_shared_warp(spec, s.row.view());
    EXPECT_EQ(sa.passes, sb.passes) << "ws=" << ws << " it=" << it;
    EXPECT_EQ(sa.extra_passes, sb.extra_passes) << "ws=" << ws << " it=" << it;
    wide_shared += s.row.size > 32 && s.row.mask != 0;

    const WarpCase k = random_warp(rng, ws, 64 * 1024);
    const ref::WarpPasses ka = ref::analyze_const_warp(spec, k.lanes);
    const WarpConstCost kb = analyze_const_warp(spec, k.row.view());
    EXPECT_EQ(ka.passes, kb.passes) << "ws=" << ws << " it=" << it;
    EXPECT_EQ(ka.extra_passes, kb.extra_passes) << "ws=" << ws << " it=" << it;
  }
  // Widths past a segment per lane were drawn often enough to matter.
  EXPECT_GT(wide_global, 300);
  EXPECT_GT(wide_shared, 300);

  // The bank-conflict fast-path shapes and their near misses, each checked
  // half-warp by half-warp against the reference rule.
  int drawn[kShapes] = {};
  for (int it = 0; it < 1200; ++it) {
    const auto shape = static_cast<SharedShape>(it % kShapes);
    const bool miss = shape == kBroadcastMiss || shape == kRunMiss;
    // A near miss needs two lanes per half-warp.
    int ws = random_warp_size(rng);
    while (miss && ws < 4) ws = random_warp_size(rng);
    const DeviceSpec spec = spec_with_warp(ws);
    const WarpCase s =
        shared_shape_warp(rng, ws, spec.shared_mem_banks, shape);
    const ref::WarpPasses want = ref::analyze_shared_warp(spec, s.lanes);
    const WarpBankCost got = analyze_shared_warp(spec, s.row.view());
    EXPECT_EQ(want.passes, got.passes) << "shape " << shape << " it=" << it;
    EXPECT_EQ(want.extra_passes, got.extra_passes)
        << "shape " << shape << " it=" << it;
    for (int lo = 0; lo < ws; lo += ws / 2) {
      if (((s.row.mask >> lo) & ((1u << (ws / 2)) - 1u)) == 0) continue;
      const ref::HalfWarpPasses half = ref::analyze_shared_half_warp(
          spec, &s.lanes[static_cast<std::size_t>(lo)], ws / 2);
      EXPECT_EQ(half.serialization, miss ? 2 : 1)
          << "shape " << shape << " it=" << it << " lo=" << lo;
      ++drawn[shape];
    }
  }
  for (int shape = 0; shape < kShapes; ++shape)
    EXPECT_GT(drawn[shape], 100) << "shape " << shape;
}

TEST(AnalyzerOracle, TextureWarpProbesMatchPerLaneProbes) {
  std::mt19937 rng(1729);
  for (int it = 0; it < 200; ++it) {
    const int ws = random_warp_size(rng);
    const DeviceSpec spec = spec_with_warp(ws);
    // A stream of warp instructions over a working set near the cache size,
    // so hits, misses and evictions all occur.
    TextureCache per_lane(spec), per_warp(spec);
    for (int j = 0; j < 24; ++j) {
      const WarpCase t = random_warp(rng, ws, 3 * spec.texture_cache_bytes);
      std::uint64_t hits = 0, misses = 0;
      for (const ref::Lane& a : t.lanes) {
        if (!a.active) continue;
        if (per_lane.access(a.addr)) ++hits;
        else ++misses;
      }
      const auto r = per_warp.access_warp(t.row.view());
      EXPECT_EQ(hits, r.hits) << "ws=" << ws << " it=" << it << " j=" << j;
      EXPECT_EQ(misses, r.misses) << "ws=" << ws << " it=" << it << " j=" << j;
    }
    EXPECT_EQ(per_lane.hits(), per_warp.hits());
    EXPECT_EQ(per_lane.misses(), per_warp.misses());
  }
}

// ---- Arena oracle -----------------------------------------------------------

void expect_same_access(const MemAccess& a, const MemAccess& b,
                        const char* what, int lane, std::size_t j) {
  EXPECT_EQ(a.addr, b.addr) << what << " lane " << lane << " #" << j;
  EXPECT_EQ(a.size, b.size) << what << " lane " << lane << " #" << j;
  EXPECT_EQ(a.site, b.site) << what << " lane " << lane << " #" << j;
  EXPECT_EQ(a.store, b.store) << what << " lane " << lane << " #" << j;
}

// One static memory instruction of a random warp program.
struct Op {
  enum Kind { kUniform, kArm, kLoop, kMixedSize } kind = kUniform;
  std::uint32_t site = 0;
  std::uint32_t size = 4;
  bool store = false;
  std::uint32_t arm_mask = 0;  // kArm: lanes taking this arm
  int trip_mod = 1;            // kLoop: lane k runs (k % trip_mod) + 1 times
};

// Per-lane access sequences of one random program, split into barrier
// phases: phases[p][k] is lane k's accesses in phase p.
using Phases = std::vector<std::vector<std::vector<MemAccess>>>;

Phases random_program(std::mt19937& rng, int lane_count, bool divergent) {
  const int num_phases = std::uniform_int_distribution<int>(1, 3)(rng);
  Phases phases(static_cast<std::size_t>(num_phases),
                std::vector<std::vector<MemAccess>>(
                    static_cast<std::size_t>(lane_count)));
  std::uint32_t next_site = 1;
  for (auto& phase : phases) {
    const int ops = std::uniform_int_distribution<int>(1, 6)(rng);
    for (int o = 0; o < ops; ++o) {
      Op op;
      op.kind = divergent ? static_cast<Op::Kind>(
                                std::uniform_int_distribution<int>(0, 3)(rng))
                          : Op::kUniform;
      // Loops revisit one site; other ops sometimes reuse an earlier site,
      // as a kernel's second call through one helper would.
      op.site = next_site > 1 && rng() % 4 == 0
                    ? std::uniform_int_distribution<std::uint32_t>(
                          1, next_site - 1)(rng)
                    : next_site++;
      op.size = random_size(rng);
      op.store = rng() % 3 == 0;
      op.arm_mask = static_cast<std::uint32_t>(rng());
      op.trip_mod = std::uniform_int_distribution<int>(1, 5)(rng);
      const std::uint32_t base = (rng() % 4096) * 64;
      for (int k = 0; k < lane_count; ++k) {
        auto& seq = phase[static_cast<std::size_t>(k)];
        const std::uint32_t addr = base + static_cast<std::uint32_t>(k) * 4;
        switch (op.kind) {
          case Op::kUniform:
            seq.push_back({addr, op.size, op.site, op.store});
            break;
          case Op::kArm:
            // The lanes not taking this arm run a sibling arm's site.
            if (op.arm_mask & (1u << k))
              seq.push_back({addr, op.size, op.site, op.store});
            else
              seq.push_back({addr, op.size, op.site + 1000, op.store});
            break;
          case Op::kLoop:
            for (int t = 0; t <= k % op.trip_mod; ++t)
              seq.push_back({addr + static_cast<std::uint32_t>(t) * 256,
                             op.size, op.site, op.store});
            break;
          case Op::kMixedSize:
            seq.push_back({addr, k % 2 == 0 ? op.size : (op.size == 4 ? 8 : 4),
                           op.site, op.store});
            break;
        }
      }
    }
  }
  return phases;
}

// Reference grouping: one warp instruction per (site, size, direction,
// occurrence of that triple in the lane), in first-appearance order over
// lanes in thread order.
struct RefRow {
  std::uint64_t key = 0;
  std::uint32_t mask = 0;
  std::vector<std::uint32_t> addrs;
};

std::vector<RefRow> reference_rows(
    const std::vector<std::vector<MemAccess>>& lanes, int ws) {
  using Identity = std::tuple<std::uint32_t, std::uint32_t, bool>;
  std::map<std::pair<Identity, std::uint32_t>, std::size_t> index;
  std::vector<RefRow> rows;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    std::map<Identity, std::uint32_t> occurrence;
    for (const MemAccess& a : lanes[k]) {
      const Identity id{a.site, a.size, a.store};
      const auto [it, inserted] =
          index.emplace(std::pair{id, occurrence[id]++}, rows.size());
      if (inserted) {
        rows.push_back({pack_trace_key(a.site, a.size, a.store), 0,
                        std::vector<std::uint32_t>(
                            static_cast<std::size_t>(ws))});
      }
      rows[it->second].mask |= 1u << k;
      rows[it->second].addrs[k] = a.addr;
    }
  }
  return rows;
}

TEST(ArenaOracle, RecordedStreamsReconstructAndGroupExactly) {
  std::mt19937 rng(8800);
  int clean = 0, dirty = 0;
  TraceArena arena;
  WarpSpaceBatch regrouped;  // reused across iterations, as the collector does
  for (int it = 0; it < 600; ++it) {
    const int ws = random_warp_size(rng);
    const int lane_count = std::uniform_int_distribution<int>(1, ws)(rng);
    const bool divergent = rng() % 2 == 0;
    const Phases phases = random_program(rng, lane_count, divergent);

    // Record as the block runner does: phase by phase, lanes in thread
    // order within a phase.  The arena is reused across iterations.
    arena.begin_block(spec_with_warp(ws), lane_count);
    WarpSpaceBatch& s = *arena.stream(0, kSpaceGlobal);
    std::vector<std::vector<MemAccess>> lanes(
        static_cast<std::size_t>(lane_count));
    std::size_t not_joined = 0;  // accesses the recorder notes a site for
    for (const auto& phase : phases) {
      for (int k = 0; k < lane_count; ++k) {
        for (const MemAccess& a : phase[static_cast<std::size_t>(k)]) {
          not_joined += !s.record(k, a.site, a.size, a.store, a.addr);
          lanes[static_cast<std::size_t>(k)].push_back(a);
        }
      }
    }
    // record() reports a join exactly when the access claimed a row another
    // lane opened: every other access opened a row or went to overflow.
    std::size_t overflowed = 0;
    for (const auto& o : s.overflow) overflowed += o.size();
    EXPECT_EQ(not_joined, s.rows() + overflowed) << "it=" << it;

    // reconstruct_lane(k) is exactly lane k's input.
    std::vector<MemAccess> got;
    for (int k = 0; k < lane_count; ++k) {
      s.reconstruct_lane(k, &got);
      const auto& want = lanes[static_cast<std::size_t>(k)];
      ASSERT_EQ(got.size(), want.size()) << "it=" << it << " lane " << k;
      for (std::size_t j = 0; j < want.size(); ++j)
        expect_same_access(got[j], want[j], "reconstruct", k, j);
    }

    // A converged program never leaves the positional fast path.
    EXPECT_TRUE(divergent || !s.dirty()) << "it=" << it;
    // The rows the collector analyzes: a clean stream's own, a dirty
    // stream's regroup.
    const WarpSpaceBatch* rows = &s;
    if (s.dirty()) {
      ++dirty;
      s.regroup(lane_count, &regrouped);
      rows = &regrouped;
    } else {
      ++clean;
    }
    const std::vector<RefRow> want = reference_rows(lanes, ws);
    ASSERT_EQ(rows->rows(), want.size()) << "it=" << it;
    ASSERT_EQ(rows->stride, ws) << "it=" << it;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(rows->keys[j], want[j].key) << "it=" << it << " row " << j;
      ASSERT_EQ(rows->masks[j], want[j].mask) << "it=" << it << " row " << j;
      for (int k = 0; k < ws; ++k) {
        if ((want[j].mask >> k & 1u) == 0) continue;
        EXPECT_EQ(rows->row_addrs(j)[k], want[j].addrs[k])
            << "it=" << it << " row " << j << " lane " << k;
      }
    }
  }
  // Both collector paths were exercised.
  EXPECT_GT(clean, 100);
  EXPECT_GT(dirty, 100);
}

// ---- Control-stream oracle --------------------------------------------------

// One branch outcome or barrier of a lane.
struct ControlEvent {
  bool sync = false;
  std::uint32_t site = 0;
  bool taken = false;
};

// Per-lane control sequences of one random block, split into phases as
// Phases is: phases[p][k] is lane k's events in phase p.
using ControlPhases = std::vector<std::vector<std::vector<ControlEvent>>>;

ControlPhases random_control_program(std::mt19937& rng, int lane_count,
                                     bool divergent) {
  // Uniform ops run at one site in every lane; arm ops send the lanes
  // outside `arm` to a sibling site; loop ops repeat per lane a trip count
  // that varies across lanes (a loop branch is taken once per trip, then
  // falls through).
  enum Kind { kBranch, kSync, kArmBranch, kArmSync, kLoopBranch, kLoopSync };
  const int num_phases = std::uniform_int_distribution<int>(1, 3)(rng);
  ControlPhases phases(static_cast<std::size_t>(num_phases),
                       std::vector<std::vector<ControlEvent>>(
                           static_cast<std::size_t>(lane_count)));
  std::uint32_t next_site = 1;
  for (auto& phase : phases) {
    const int ops = std::uniform_int_distribution<int>(1, 8)(rng);
    for (int o = 0; o < ops; ++o) {
      const Kind kind = static_cast<Kind>(
          std::uniform_int_distribution<int>(0, divergent ? 5 : 1)(rng));
      const std::uint32_t site =
          next_site > 1 && rng() % 4 == 0
              ? std::uniform_int_distribution<std::uint32_t>(
                    1, next_site - 1)(rng)
              : next_site++;
      // Outcomes: all taken, none, or a random lane pattern.
      const int pattern = std::uniform_int_distribution<int>(0, 2)(rng);
      const std::uint32_t outcomes = static_cast<std::uint32_t>(rng());
      const std::uint32_t arm = static_cast<std::uint32_t>(rng());
      const int trip_mod = std::uniform_int_distribution<int>(1, 5)(rng);
      for (int k = 0; k < lane_count; ++k) {
        auto& seq = phase[static_cast<std::size_t>(k)];
        const bool in_arm = (arm >> (k % 32)) & 1u;
        const bool taken = pattern == 0 || (pattern == 2 &&
                                            ((outcomes >> (k % 32)) & 1u));
        switch (kind) {
          case kBranch: seq.push_back({false, site, taken}); break;
          case kSync: seq.push_back({true, site, false}); break;
          case kArmBranch:
            seq.push_back({false, in_arm ? site : site + 1000, taken});
            break;
          case kArmSync:
            seq.push_back({true, in_arm ? site : site + 1000, false});
            break;
          case kLoopBranch:
            for (int t = 0; t <= k % trip_mod; ++t)
              seq.push_back({false, site, t < k % trip_mod});
            break;
          case kLoopSync:
            for (int t = 0; t <= k % trip_mod; ++t)
              seq.push_back({true, site, false});
            break;
        }
      }
    }
  }
  return phases;
}

TEST(ArenaOracle, ControlStreamsCountBranchesAndBarriersExactly) {
  std::mt19937 rng(1207);
  const std::source_location loc = std::source_location::current();
  int clean = 0, dirty = 0, clean_divergent = 0;
  TraceArena arena;
  for (int it = 0; it < 600; ++it) {
    const int ws = random_warp_size(rng);
    const DeviceSpec spec = spec_with_warp(ws);
    const int lane_count = std::uniform_int_distribution<int>(1, 3 * ws)(rng);
    const bool divergent = rng() % 2 == 0;
    const ControlPhases phases =
        random_control_program(rng, lane_count, divergent);

    // Record as the block runner does: phase by phase, lanes in thread
    // order within a phase, each lane through its own recorder.
    arena.begin_block(spec, lane_count);
    std::vector<LaneRecorder> recorders;
    for (int k = 0; k < lane_count; ++k) recorders.emplace_back(arena, k);
    std::vector<ref::LaneControl> lanes(static_cast<std::size_t>(lane_count));
    for (const auto& phase : phases) {
      for (int k = 0; k < lane_count; ++k) {
        auto& lane = lanes[static_cast<std::size_t>(k)];
        for (const ControlEvent& e : phase[static_cast<std::size_t>(k)]) {
          if (e.sync) {
            recorders[static_cast<std::size_t>(k)].sync_site(e.site, loc);
            lane.syncs.push_back(e.site);
          } else {
            recorders[static_cast<std::size_t>(k)].branch_outcome(e.taken,
                                                                  e.site);
            lane.branches.push_back({e.site, e.taken});
          }
        }
      }
    }

    const BlockTrace block = TraceCollector(spec, arena).finish();
    ASSERT_EQ(block.warps.size(),
              static_cast<std::size_t>((lane_count + ws - 1) / ws));
    std::map<std::uint32_t, std::uint64_t> want_syncs;
    std::uint64_t divergent_branches = 0;
    for (std::size_t w = 0; w < block.warps.size(); ++w) {
      const int lo = static_cast<int>(w) * ws;
      const ref::WarpControl want =
          ref::warp_control(&lanes[static_cast<std::size_t>(lo)],
                            std::min(ws, lane_count - lo));
      EXPECT_EQ(block.warps[w].branches, want.branches)
          << "it=" << it << " warp " << w;
      EXPECT_EQ(block.warps[w].divergent_branches, want.divergent_branches)
          << "it=" << it << " warp " << w;
      divergent_branches += want.divergent_branches;
      for (const auto& [site, n] : want.syncs) want_syncs[site] += n;
    }
    // Only barriers reach the per-site statistics, each with its source
    // position.
    std::map<std::uint32_t, std::uint64_t> got_syncs;
    for (const SiteStats& s : block.sites) {
      got_syncs[s.site] = s.syncs;
      EXPECT_EQ(s.line, loc.line()) << "it=" << it << " site " << s.site;
    }
    EXPECT_EQ(got_syncs, want_syncs) << "it=" << it;

    // A converged program never leaves the positional fast path.
    EXPECT_TRUE(divergent || block.regrouped_streams == 0) << "it=" << it;
    if (block.regrouped_streams == 0) {
      ++clean;
      clean_divergent += divergent_branches > 0;
    } else {
      ++dirty;
    }
  }
  // Both collector paths were exercised, and clean rows still saw lanes
  // disagree on an outcome.
  EXPECT_GT(clean, 100);
  EXPECT_GT(dirty, 100);
  EXPECT_GT(clean_divergent, 50);
}

// ---- Drain oracle -----------------------------------------------------------

// One event of a lane in a random block: a memory access in one of the four
// address spaces, a branch outcome, or a barrier.
struct BlockEvent {
  int space = kSpaceGlobal;
  std::uint32_t site = 0;
  std::uint32_t size = 4;
  bool store = false;
  std::uint32_t value = 0;  // the address, or a branch's outcome
};

// phases[p][k]: lane k's events between barrier releases p - 1 and p.
using BlockPhases = std::vector<std::vector<std::vector<BlockEvent>>>;

// A random block over every stream.  Divergent ops (arm-specific sites,
// per-lane trip counts, mixed widths at one site) are likelier after the
// first phase, so streams also go dirty after rows were drained clean.
// Texture addresses stay within a few cache sizes, so the cache's hits
// depend on the order warps probe it.
BlockPhases random_block(std::mt19937& rng, int lane_count, bool divergent,
                         const DeviceSpec& spec) {
  const int num_phases = std::uniform_int_distribution<int>(1, 4)(rng);
  BlockPhases phases(static_cast<std::size_t>(num_phases),
                     std::vector<std::vector<BlockEvent>>(
                         static_cast<std::size_t>(lane_count)));
  std::uint32_t next_site = 1;
  for (int p = 0; p < num_phases; ++p) {
    const int ops = std::uniform_int_distribution<int>(1, 8)(rng);
    for (int o = 0; o < ops; ++o) {
      const int space = std::uniform_int_distribution<int>(0, 5)(rng);
      const bool memory = space < kSpaceBranch;
      const int odds = p == 0 ? 5 : 2;  // 1 in odds ops diverges
      const int kind = divergent && rng() % odds == 0
                           ? std::uniform_int_distribution<int>(1, 3)(rng)
                           : 0;
      const std::uint32_t site =
          next_site > 1 && rng() % 4 == 0
              ? std::uniform_int_distribution<std::uint32_t>(
                    1, next_site - 1)(rng)
              : next_site++;
      const std::uint32_t size = memory ? 4u << (rng() % 3) : 0;
      const bool store =
          (space == kSpaceGlobal || space == kSpaceShared) && rng() % 3 == 0;
      const std::uint32_t arm = static_cast<std::uint32_t>(rng());
      const std::uint32_t outcomes = static_cast<std::uint32_t>(rng());
      const int trip_mod = std::uniform_int_distribution<int>(1, 4)(rng);
      const std::uint32_t base =
          space == kSpaceTexture
              ? static_cast<std::uint32_t>(
                    rng() % (3 * spec.texture_cache_bytes)) & ~3u
          : space == kSpaceShared ? (rng() % 1024) * 4
                                  : (rng() % 4096) * 64;
      const std::uint32_t stride = space == kSpaceTexture ? 64 : 4;
      for (int k = 0; k < lane_count; ++k) {
        auto& seq = phases[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(k)];
        BlockEvent e{space, site, size, store,
                     base + static_cast<std::uint32_t>(k) * stride};
        if (space == kSpaceBranch) e.value = (outcomes >> (k % 32)) & 1u;
        if (space == kSpaceSync) e.value = 0;
        switch (kind) {
          case 0: seq.push_back(e); break;
          case 1:  // the lanes outside `arm` run a sibling arm's site
            if (!((arm >> (k % 32)) & 1u)) e.site += 1000;
            seq.push_back(e);
            break;
          case 2:
            for (int t = 0; t <= k % trip_mod; ++t) seq.push_back(e);
            break;
          default:  // odd lanes use another width (a branch arm's site)
            if (k % 2 == 1) {
              if (memory) e.size = e.size == 4 ? 8 : 4;
              else e.site += 1000;
            }
            seq.push_back(e);
            break;
        }
      }
    }
  }
  return phases;
}

void record(LaneRecorder& r, const BlockEvent& e,
            const std::source_location& loc) {
  switch (e.space) {
    case kSpaceGlobal:
      r.mem(e.store ? OpClass::kStoreGlobal : OpClass::kLoadGlobal, e.value,
            e.size, e.site, loc);
      break;
    case kSpaceShared:
      r.mem(e.store ? OpClass::kStoreShared : OpClass::kLoadShared, e.value,
            e.size, e.site, loc);
      break;
    case kSpaceConst:
      r.mem(OpClass::kLoadConst, e.value, e.size, e.site, loc);
      break;
    case kSpaceTexture:
      r.mem(OpClass::kLoadTexture, e.value, e.size, e.site, loc);
      break;
    case kSpaceBranch: r.branch_outcome(e.value != 0, e.site); break;
    default: r.sync_site(e.site, loc); break;
  }
}

TEST(DrainOracle, DrainedCollectionEqualsUndrained) {
  std::mt19937 rng(2008);
  const std::source_location loc = std::source_location::current();
  int ragged = 0, regrouped = 0, smaller_peak = 0, dirty_after_drain = 0,
      diverged_exits = 0, block_end_only = 0;
  TraceArena drained_arena, whole_arena;
  for (int it = 0; it < 800; ++it) {
    const int ws = random_warp_size(rng);
    const DeviceSpec spec = spec_with_warp(ws);
    const int lane_count = std::uniform_int_distribution<int>(1, 3 * ws)(rng);
    const int num_warps = (lane_count + ws - 1) / ws;
    const bool divergent = rng() % 3 != 0;
    const BlockPhases phases = random_block(rng, lane_count, divergent, spec);
    const int last_phase = static_cast<int>(phases.size()) - 1;
    // Most lanes run to the end; some exit after an earlier phase.
    std::vector<int> exit_phase(static_cast<std::size_t>(lane_count),
                                last_phase);
    for (int& e : exit_phase) {
      if (rng() % 4 == 0)
        e = std::uniform_int_distribution<int>(0, last_phase)(rng);
    }
    // Some blocks report no lane exits, so only barrier releases and the
    // block end drain them.
    const bool report_exits = rng() % 4 != 0;
    block_end_only += !report_exits;

    drained_arena.begin_block(spec, lane_count);
    whole_arena.begin_block(spec, lane_count);
    TraceCollector drained(spec, drained_arena);
    TraceCollector whole(spec, whole_arena);  // collected at block end only
    std::vector<LaneRecorder> drained_rec, whole_rec;
    for (int k = 0; k < lane_count; ++k) {
      drained_rec.emplace_back(drained_arena, k);
      whole_rec.emplace_back(whole_arena, k);
    }
    // Streams drained while clean, to see them go dirty afterwards.
    std::vector<char> drained_clean(
        static_cast<std::size_t>(num_warps) * kNumTraceSpaces, 0);
    auto note_dirty = [&](int w) {
      for (int space = 0; space < kNumTraceSpaces; ++space) {
        char& flag = drained_clean[static_cast<std::size_t>(w) *
                                       kNumTraceSpaces + space];
        if (flag && drained_arena.stream(w, space)->dirty()) {
          ++dirty_after_drain;
          flag = 0;
        }
      }
    };

    // Record as the block runner runs: phase by phase, live lanes in thread
    // order, each exiting right after its last event.
    for (int p = 0; p <= last_phase; ++p) {
      for (int k = 0; k < lane_count; ++k) {
        const auto lane = static_cast<std::size_t>(k);
        if (exit_phase[lane] < p) continue;
        for (const BlockEvent& e : phases[static_cast<std::size_t>(p)][lane]) {
          record(drained_rec[lane], e, loc);
          record(whole_rec[lane], e, loc);
        }
        if (exit_phase[lane] != p) continue;
        const int w = k / ws;
        note_dirty(w);
        std::uint32_t diverged = 0;
        for (int space = 0; space < kNumTraceSpaces; ++space)
          diverged |= drained_arena.stream(w, space)->diverged;
        diverged = (diverged >> (k % ws)) & 1u;
        diverged_exits += diverged != 0 && p < last_phase;
        if (report_exits) drained.lane_exited(k);
      }
      if (p == last_phase || rng() % 4 == 0) continue;  // no release here
      for (int w = 0; w < num_warps; ++w) {
        note_dirty(w);
        const int lanes = std::min(ws, lane_count - w * ws);
        for (int space = 0; space < kNumTraceSpaces; ++space) {
          const WarpSpaceBatch& st = *drained_arena.stream(w, space);
          if (!st.dirty() && st.final_rows(lanes) > 0)
            drained_clean[static_cast<std::size_t>(w) * kNumTraceSpaces +
                          space] = 1;
        }
      }
      drained.on_barrier_release(BarrierSnapshot{});
    }
    for (int w = 0; w < num_warps; ++w) note_dirty(w);

    const BlockTrace got = drained.finish();
    const BlockTrace want = whole.finish();
    ASSERT_EQ(got.warps.size(), static_cast<std::size_t>(num_warps));
    ASSERT_EQ(want.warps.size(), got.warps.size());
    for (std::size_t w = 0; w < got.warps.size(); ++w)
      EXPECT_TRUE(got.warps[w] == want.warps[w])
          << "it=" << it << " warp " << w;
    EXPECT_TRUE(got.sites == want.sites) << "it=" << it;
    EXPECT_EQ(got.regrouped_streams, want.regrouped_streams) << "it=" << it;
    EXPECT_EQ(got.arena_row_bytes, want.arena_row_bytes) << "it=" << it;
    EXPECT_EQ(got.site_lookups, want.site_lookups) << "it=" << it;
    // Undrained, the arena held every row at block end.
    EXPECT_EQ(want.arena_peak_bytes, want.arena_row_bytes) << "it=" << it;
    EXPECT_LE(got.arena_peak_bytes, want.arena_peak_bytes) << "it=" << it;

    ragged += lane_count % ws != 0;
    regrouped += want.regrouped_streams > 0;
    smaller_peak += got.arena_peak_bytes < want.arena_peak_bytes;
  }
  // Every case the drains must survive was drawn often enough to matter.
  EXPECT_GT(ragged, 100);
  EXPECT_GT(regrouped, 100);
  EXPECT_GT(smaller_peak, 100);
  EXPECT_GT(dirty_after_drain, 50);
  EXPECT_GT(diverged_exits, 50);
  EXPECT_GT(block_end_only, 100);
}

}  // namespace
}  // namespace g80
