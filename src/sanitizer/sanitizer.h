// g80check — a cuda-memcheck/compute-sanitizer-style validation layer for
// the simulator's execution stack.
//
// The two behaviours the paper (§2) declares *undefined* on the 8800 GTX —
// a __syncthreads() executed under divergent control flow, and
// unsynchronized shared-memory communication between threads — execute
// silently in an unchecked simulator and would produce plausible-but-wrong
// Table 3 numbers for a buggy application port.  When enabled
// (LaunchOptions::sanitize.enabled), launch()'s one sweep over the grid runs
// every block with Ctx<SanitizerRecorder> instead of the functional
// NullRecorder; the recorder feeds shared-memory accesses into shadow
// memory (shadow.h) and the BlockRunner reports every barrier release
// through the BarrierObserver hook.  A clean sweep's stores are the
// launch's results; after a dirty one, or one run with a fault armed, a
// functional launch reruns the grid with the NullRecorder.  Disabled
// launches never instantiate the sanitizer and pay nothing.
//
// Deterministic fault injection (FaultInjection) perturbs a chosen access or
// skips a chosen barrier in the sanitized sweep only, so tests can prove the
// detectors catch exactly what they claim.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "exec/block_runner.h"
#include "sanitizer/shadow.h"

namespace g80 {

// Deterministic fault injection, applied during the sanitized sweep only.
// Indices are per-block dynamic counts: "thread T's n-th shared store" /
// "thread T's n-th __syncthreads()".
struct FaultInjection {
  // Skip this thread's n-th barrier, making it run ahead of (or exit while)
  // the rest of the block — the classic divergent-__syncthreads bug.
  int skip_barrier_tid = -1;  // -1 disables
  int skip_barrier_index = 0;
  // Redirect this thread's n-th shared store by `corrupt_offset_words`
  // words (wrapping within the view), colliding with another thread's slot.
  int corrupt_store_tid = -1;  // -1 disables
  int corrupt_store_index = 0;
  std::uint32_t corrupt_offset_words = 1;
  // Redirect this thread's n-th *global* store out of bounds (to index n of
  // an n-element view), modeling a wild device pointer.  Unlike the shared
  // faults this is detectable in any kernel — every kernel in the suite
  // writes global output — so the fault campaign (resil/campaign.h) can
  // exercise all 13 applications.  The OOB store raises
  // Status::kInvalidAddress from the sanitized sweep.
  int corrupt_global_tid = -1;  // -1 disables
  int corrupt_global_index = 0;
  // Linear block index the faults apply to; -1 applies to every block.
  std::int64_t block = 0;

  // Some fault is configured.  The host never reads the stores of a
  // sanitized sweep that ran with one (launch.h reruns the grid).
  bool armed() const {
    return skip_barrier_tid >= 0 || corrupt_store_tid >= 0 ||
           corrupt_global_tid >= 0;
  }
};

struct SanitizerOptions {
  bool enabled = false;
  // Throw StatusError (after recording the sticky device status) when the
  // sanitized sweep produced findings.  With false, findings are only
  // reported through LaunchStats::sanitizer for host-side inspection.
  bool abort_on_error = true;
  std::size_t max_findings = 16;
  FaultInjection fault;
};

struct Finding {
  Status status = Status::kSuccess;
  std::uint64_t block = 0;  // linear index of the first block exhibiting it
  std::string message;
};

struct SanitizerReport {
  std::vector<Finding> findings;
  std::uint64_t blocks_checked = 0;
  // Blocks the launch asked g80check to check: the whole grid when
  // sanitize.enabled, else 0.  A degraded launch (g80resil fallback level
  // 2) skips the sanitizing and checks fewer.
  std::uint64_t blocks_requested = 0;
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t barriers_checked = 0;

  // No findings, and every requested block was checked: a skipped sweep is
  // not a clean one.
  bool clean() const {
    return findings.empty() && blocks_checked >= blocks_requested;
  }
  bool has(Status s) const;
  // Multi-line human-readable report, one line per finding.
  std::string summary() const;
};

// Recovery-oriented classification of a failed launch's Status (g80resil).
// Transient faults are worth re-executing — a wall-clock watchdog timeout
// (host scheduling; a retry may complete, possibly after falling back to a
// cheaper execution mode) or an unclassified kLaunchFailure (e.g. a kernel
// functor that threw).  Permanent faults are deterministic programming-model
// violations: the identical launch fails identically, so the only recovery
// is Device::reset() plus a corrected relaunch.
enum class FaultClass {
  kTransient,  // retry (with backoff / fallback) may succeed
  kPermanent,  // deterministic violation; retry cannot help
};

FaultClass classify_fault(Status s);

class Sanitizer final : public BarrierObserver {
 public:
  Sanitizer(const SanitizerOptions& opt, std::size_t smem_capacity);

  // Reset per-block state before running block `linear_block`.
  void begin_block(std::uint64_t linear_block);

  // BarrierObserver: divergence checks at every barrier release.
  void on_barrier_release(const BarrierSnapshot& snap) override;

  // SanitizerRecorder hooks (offset is bytes into the shared arena).
  void on_shared_read(int tid, std::uint64_t offset, std::uint32_t size,
                      const AccessSite& site);
  void on_shared_write(int tid, std::uint64_t offset, std::uint32_t size,
                       const AccessSite& site);

  // Fault-injection queries (see FaultInjection).
  bool should_skip_barrier(int tid, int sync_index) const;
  std::size_t fault_shared_store_index(int tid, int store_index, std::size_t i,
                                       std::size_t n) const;
  std::size_t fault_global_store_index(int tid, int store_index, std::size_t i,
                                       std::size_t n) const;

  const SanitizerReport& report() const { return report_; }

 private:
  void add_finding(Status s, const std::string& message);
  bool fault_applies(int tid, int index, int want_tid, int want_index) const;

  SanitizerOptions opt_;
  SharedShadow shadow_;
  SanitizerReport report_;
  std::set<std::string> seen_;  // dedup identical diagnostics across blocks
  std::uint64_t block_ = 0;
  int epoch_ = 0;  // barrier epoch of the block currently executing
};

}  // namespace g80
