// g80resil — per-launch resilience policy and recovery provenance.
//
// The real 8800 GTX runs under a host watchdog (the Windows/X display
// timeout the paper's long-running kernels had to dodge by splitting work
// across launches, §5.1), and production CUDA services wrap launches in
// retry/fallback logic because transient host conditions — an oversubscribed
// machine starving the block-scheduling pool, a wedged cooperative kernel —
// are recoverable by re-execution while programming-model violations are
// not.  ResiliencePolicy opts a launch into that machinery:
//
//   - a wall-clock watchdog cancels an attempt that exceeds its budget
//     (Status::kTimeout) at the executor's cancellation points;
//   - a modeled watchdog rejects launches whose *modeled* device time
//     exceeds a budget, reproducing the display-timeout constraint on the
//     simulated clock;
//   - transient failures (classify_fault) are retried up to `max_retries`
//     times with exponential backoff, degrading gracefully through fallback
//     levels (parallel pool -> sequential -> sequential with no sanitize
//     pass and at most one traced block);
//   - every attempt is recorded in ResilienceStats, which rides on
//     LaunchStats and flows into g80prof / g80scope provenance.
//
// The default-constructed policy is disabled and the launch path is then
// byte-for-byte the pre-resil seed behaviour.
#pragma once

#include <vector>

#include "common/error.h"

namespace g80 {

// Highest graceful-degradation level (see AttemptConfig::fallback_level):
// 0 = as requested, 1 = sequential blocks, 2 = sequential, sanitize pass
// skipped, and a trace sample of one block when sanitizing was requested or
// the modeled watchdog needs it, none otherwise (see detail::launch_impl).
inline constexpr int kMaxFallbackLevel = 2;

struct ResiliencePolicy {
  // Master switch; false leaves the launch path exactly as before g80resil.
  bool enabled = false;
  // Wall-clock budget per attempt in seconds; a watchdog thread cancels the
  // attempt (Status::kTimeout) once exceeded.  0 disables the watchdog.
  double wall_timeout_s = 0;
  // Budget on the *modeled* device-side kernel time: a launch whose timing
  // model predicts more than this raises kTimeout before the sanitize and
  // functional passes run (the paper's display-watchdog constraint, §5.1).
  // 0 disables.  Deterministic — retries fail identically, so pair this
  // with max_retries = 0 unless the test wants to observe retry exhaustion.
  double modeled_timeout_s = 0;
  // Re-execution budget for transient failures; attempt count is
  // max_retries + 1.  0 = fail on the first error, resil-off style, but
  // still under the watchdog.
  int max_retries = 2;
  // Exponential backoff between attempts: the n-th retry sleeps
  // backoff_initial_s * backoff_multiplier^n.  0 initial = no sleeping
  // (tests use this to keep the suite fast).
  double backoff_initial_s = 1e-3;
  double backoff_multiplier = 2.0;
  // Escalate the fallback level by one on every retry (capped at
  // kMaxFallbackLevel), trading fidelity for survival; false retries the
  // identical configuration.
  bool allow_fallback = true;
  // Test hook: make this many leading attempts fail with a synthetic
  // transient kLaunchFailure before the body runs, so retry/backoff/fallback
  // paths are testable without real nondeterminism.
  int inject_transient_failures = 0;
};

// One row of the attempt history.
struct LaunchAttempt {
  int attempt = 0;         // 0-based
  int fallback_level = 0;  // degradation level this attempt ran at
  Status status = Status::kSuccess;
  double backoff_s = 0;  // sleep taken *after* this attempt failed
};

// Recovery provenance for one launch(), recorded on LaunchStats::resilience
// and surfaced through g80prof (KernelProfile) and g80scope (LaunchRecord).
struct ResilienceStats {
  int attempts = 0;        // total attempts executed (>= 1 once launched)
  int fallback_level = 0;  // level of the final (successful or last) attempt
  bool recovered = false;  // succeeded only after at least one retry
  bool timed_out = false;  // some attempt was cancelled by a watchdog
  double total_backoff_s = 0;
  std::vector<LaunchAttempt> history;  // empty when the policy is disabled

  int retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

}  // namespace g80
