// Canonical content digests of what a traced launch feeds downstream: the
// TraceSummary (every warp counter and per-site row), the modeled time, the
// derived g80prof counters and the g80scope per-SM series.  The golden tests
// in trace_batch_test.cc pin these values, so any change to the recorder,
// the collector or the analyzers that moves a single statistic fails loudly.
//
// The digest is stable across builds and processes:
//   - doubles render through ContentHasher's "%.17g" (common/content_hash.h);
//   - SiteStats leave out `site` (a hash of string addresses) and render
//     `file` as its basename (the directory depends on the checkout);
//   - site rows are put in a canonical order here — (basename, line, then
//     every counter) — because the production order breaks same-line ties
//     on `site`, which can differ between two builds of the same source.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/content_hash.h"
#include "core/app.h"
#include "cudalite/launch.h"
#include "prof/counters.h"
#include "scope/scope.h"

namespace g80 {

inline const char* digest_basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

inline void digest_ops(ContentHasher& h, const OpCounts& ops) {
  for (const std::uint64_t c : ops.counts) h.u64(c);
}

inline void digest_warp(ContentHasher& h, const WarpTrace& w) {
  digest_ops(h, w.ops);
  h.f64(w.lane_flops);
  h.u64(w.global_instructions);
  h.u64(w.global.transactions);
  h.u64(w.global.bytes);
  h.u64(w.global.scattered_bytes);
  h.u64(w.useful_global_bytes);
  h.u64(w.coalesced_instructions);
  h.u64(w.gld_instructions);
  h.u64(w.gld_coalesced);
  h.u64(w.gst_instructions);
  h.u64(w.gst_coalesced);
  h.u64(w.shared_extra_passes);
  h.u64(w.const_extra_passes);
  h.u64(w.texture_hits);
  h.u64(w.texture_misses);
  h.u64(w.branches);
  h.u64(w.divergent_branches);
}

inline void digest_trace(ContentHasher& h, const TraceSummary& t) {
  digest_warp(h, t.total);
  h.u64(t.num_warps);
  h.u64(t.num_blocks);
  const auto counters = [](const SiteStats& s) {
    return std::tuple(s.global_instructions, s.global_transactions,
                      s.uncoalesced_instructions, s.extra_transactions,
                      s.dram_bytes, s.shared_extra_passes,
                      s.const_extra_passes, s.texture_misses, s.syncs);
  };
  std::vector<SiteStats> sites = t.sites;
  std::sort(sites.begin(), sites.end(),
            [&](const SiteStats& a, const SiteStats& b) {
              const int c =
                  std::strcmp(digest_basename(a.file), digest_basename(b.file));
              if (c != 0) return c < 0;
              if (a.line != b.line) return a.line < b.line;
              return counters(a) < counters(b);
            });
  h.u64(sites.size());
  for (const SiteStats& s : sites) {
    h.str(digest_basename(s.file));
    h.u64(s.line);
    std::apply([&](auto... v) { (h.u64(v), ...); }, counters(s));
  }
}

inline void digest_counters(ContentHasher& h, const prof::KernelCounters& c) {
  for (const std::uint64_t v :
       {c.gld_coalesced, c.gld_uncoalesced, c.gst_coalesced,
        c.gst_uncoalesced, c.global_transactions, c.dram_bytes,
        c.useful_bytes, c.warp_serialize, c.shared_bank_replays,
        c.const_serialize, c.const_requests, c.tex_cache_hits,
        c.tex_cache_misses, c.branch, c.divergent_branch, c.sync,
        c.instructions, c.blocks_sampled, c.blocks_total, c.warps_sampled})
    h.u64(v);
  digest_ops(h, c.mix);
  h.f64(c.flops);
  h.f64(c.achieved_occupancy);
  h.i64(c.blocks_per_sm);
  h.i64(c.active_warps_per_sm);
}

inline void digest_series(ContentHasher& h,
                          const std::vector<scope::SmSeries>& sms) {
  h.u64(sms.size());
  for (const scope::SmSeries& s : sms) {
    for (const std::vector<double>* v :
         {&s.active_warps, &s.occupancy, &s.issue_cycles,
          &s.serialization_cycles, &s.uncoalesced_cycles, &s.mem_stall_cycles,
          &s.barrier_cycles, &s.instructions, &s.dram_bytes}) {
      h.u64(v->size());
      for (const double x : *v) h.f64(x);
    }
  }
}

// One launch: trace summary, modeled seconds and cycles, derived counters,
// and the scope series (empty when no session was attached).
inline std::uint64_t launch_digest(const DeviceSpec& spec,
                                   const LaunchStats& stats,
                                   const std::vector<scope::SmSeries>& sms) {
  ContentHasher h;
  digest_trace(h, stats.trace);
  h.f64(stats.timing.seconds);
  h.f64(stats.timing.kernel_cycles);
  digest_counters(h, prof::derive_counters(spec, stats));
  digest_series(h, sms);
  return h.digest();
}

// One suite application: its representative launch plus the summed GPU
// kernel time and launch count.
inline std::uint64_t app_digest(const DeviceSpec& spec, const AppResult& r) {
  ContentHasher h;
  h.u64(launch_digest(spec, r.representative, {}));
  h.f64(r.gpu_kernel_seconds);
  h.i64(r.launches);
  return h.digest();
}

inline std::string digest_hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, d);
  return buf;
}

}  // namespace g80
