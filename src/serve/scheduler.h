// g80serve device-pool scheduler.
//
// The daemon owns a fixed pool of simulated devices — so many GTX, Ultra
// and GTS slots — and this scheduler binds queued jobs to them.  One worker
// thread owns each slot's Device for its whole lifetime (no device ever
// migrates between threads), pulling jobs from its device class's FIFO.
//
// Isolation is the point of the design:
//   - every job runs under the pool's ResiliencePolicy (wall watchdog,
//     bounded retries), so a wedged or slow job cannot hold a slot forever;
//   - after every job the slot's Device is reset() and its sticky error
//     drained before the next job binds, so one session's programming-model
//     violation can never leak status — or execution state — into another
//     session's job (the `robust` soak test asserts this end to end), and
//     the device's bump allocator never runs out of address space;
//     `device_resets` counts only the resets after failed jobs;
//   - admission control is queue-depth backpressure: submit() rejects with
//     StatusError(kNotReady) once a class's queue is full, instead of
//     letting latency grow without bound.
//
// Completion is callback-based (invoked on the worker thread) so the
// session layer can pipeline: a connection keeps reading requests while its
// earlier jobs are still queued or running.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "resil/policy.h"
#include "resil/resilience.h"
#include "serve/kernels.h"

namespace g80::serve {

struct PoolConfig {
  // Device slots per class; 0 removes the class from the pool (jobs for it
  // are rejected with kInvalidValue at submit).
  int gtx_slots = 2;
  int ultra_slots = 1;
  int gts_slots = 1;
  // Maximum *queued* (not yet running) jobs per device class before
  // submit() pushes back with kNotReady.
  std::size_t max_queue_depth = 64;
  // Applied to every job; the default arms a generous wall watchdog so a
  // pathological job frees its slot rather than wedging it.
  ResiliencePolicy policy = [] {
    ResiliencePolicy p;
    p.enabled = true;
    p.wall_timeout_s = 30.0;
    p.max_retries = 1;
    p.backoff_initial_s = 0;  // deterministic retries need no pacing
    return p;
  }();

  int total_slots() const { return gtx_slots + ultra_slots + gts_slots; }
};

// Queue state of one device class at stats() time.
struct ClassQueueStats {
  std::string device_class;  // "gtx" | "ultra" | "gts"
  std::size_t queue_depth = 0;
  int slots = 0;
};

struct SchedulerStats {
  std::uint64_t jobs_ok = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t device_resets = 0;
  std::uint64_t rejected_not_ready = 0;
  std::size_t queue_depth = 0;  // queued across all classes, excl. running
  int running = 0;
  int slots = 0;
  // Lifetime totals accumulated from every completed job's outcome, so the
  // stats/metrics layers can report pool-wide transfer and modeled-time
  // consumption without tracking sessions.
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double modeled_seconds = 0;
  // Per-class queue depth; ordered by class name (map iteration order).
  std::vector<ClassQueueStats> classes;
};

// Optional per-job observation hooks.  Everything here runs on the slot's
// worker thread, so the span a hook closes measures real queue wait and the
// attempt observer sees exactly this job's attempts.
struct JobHooks {
  // Invoked after the job is dequeued, immediately before it runs — closes
  // the request's queue-wait span and opens its simulate span.
  std::function<void()> on_start;
  // Named out-of-band occurrences ("device_reset") with a detail note.
  std::function<void(const std::string& name, const std::string& note)>
      on_event;
  // Installed (ScopedAttemptObserver) around run_job so g80resil's retry
  // loop reports each attempt.  Must stay valid until the completion
  // callback returns; null disables.
  AttemptObserver* attempts = nullptr;
};

class Scheduler {
 public:
  explicit Scheduler(PoolConfig cfg);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  using Callback = std::function<void(const JobOutcome&)>;

  // Enqueues `req` for its device class; `done` runs exactly once, on the
  // slot's worker thread.  Throws StatusError(kNotReady) when the class
  // queue is at max_queue_depth and StatusError(kInvalidValue) for a class
  // with no slots — in both cases `done` is NOT invoked.  `hooks` (all
  // optional) observe the job's execution; a job failed at stop() without
  // ever running gets `done` but no hook calls.
  void submit(const JobRequest& req, Callback done, JobHooks hooks = {});

  // Stops accepting work, fails queued jobs with kNotReady, joins workers.
  // Idempotent.
  void stop();

  SchedulerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace g80::serve
