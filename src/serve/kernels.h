// g80serve kernel registry: the jobs the service knows how to run and how
// each one maps onto the simulator.
//
// Two kernels cover the protocol's job space:
//   - "saxpy": the suite's streaming kernel (apps/saxpy).  block_x is the
//     only free launch dimension; the grid is derived to cover n.
//   - "matmul": the §4 SGEMM case study (apps/matmul) in every variant.
//     Grid and block are dictated by (n, tile, variant) — overrides must
//     match or the job is rejected with kInvalidConfiguration, because the
//     kernels' index arithmetic assumes those shapes.
//
// resolve_config() is pure (no Device needed): the server calls it before
// scheduling, both to reject bad configurations without burning a device
// slot and to compute the cache key from the *resolved* configuration, so
// an explicit override that matches the canonical shape hits the same cache
// entry as the implicit default.
//
// run_job() executes on a scheduler slot's Device and never throws: every
// failure — programming-model violations from the sanitize pass, watchdog
// timeouts, internal errors — is folded into JobOutcome::status/error so
// the scheduler can respond, reset the device, and move on.
#pragma once

#include <cstdint>
#include <string>

#include "hw/device_spec.h"
#include "resil/policy.h"
#include "serve/protocol.h"

namespace g80 {
class AttemptObserver;
class Device;
}

namespace g80::serve {

// Device spec for a protocol device class ("gtx" | "ultra" | "gts").
DeviceSpec spec_for_class(const std::string& device_class);

// Canonical configuration for the job's kernel parameters with the request's
// overrides applied and validated.  Throws StatusError(kInvalidValue /
// kInvalidConfiguration) on unknown variants or shape-violating overrides.
LaunchConfig resolve_config(const JobRequest& req);

// Stable cache key of a job: ContentHasher over (model version, op, kernel,
// parameters, resolved launch config hash, device spec hash, fault kind).
// Endianness- and build-independent, so on-disk entries survive rebuilds.
std::uint64_t job_cache_key(const JobRequest& req, const LaunchConfig& resolved,
                            std::uint64_t device_spec_hash);

// Everything the scheduler needs from one executed job.
struct JobOutcome {
  Status status = Status::kSuccess;
  std::string error;    // message for the response when status != kSuccess
  std::string payload;  // result JSON object (the cache unit) when ok
  // Transfer-ledger deltas of this job, charged to the session's ledger.
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double modeled_seconds = 0;  // modeled device time consumed
};

// Runs a launch/profile/autotune job on `dev` under `policy`.  Never throws.
// `attempts` (null = none) hears the g80resil attempts of every launch the
// job makes.
JobOutcome run_job(Device& dev, const JobRequest& req,
                   const ResiliencePolicy& policy,
                   AttemptObserver* attempts = nullptr);

}  // namespace g80::serve
