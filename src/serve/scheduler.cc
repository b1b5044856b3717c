#include "serve/scheduler.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/str.h"
#include "cudalite/device.h"

namespace g80::serve {

namespace {

struct Job {
  JobRequest req;
  Scheduler::Callback done;
  JobHooks hooks;
};

struct ClassQueue {
  std::deque<Job> jobs;
  int slots = 0;
};

}  // namespace

struct Scheduler::Impl {
  explicit Impl(PoolConfig cfg) : cfg(cfg) {
    queues["gtx"].slots = cfg.gtx_slots;
    queues["ultra"].slots = cfg.ultra_slots;
    queues["gts"].slots = cfg.gts_slots;
    for (const auto& [cls, q] : queues) {
      for (int i = 0; i < q.slots; ++i) {
        workers.emplace_back([this, cls = cls] { worker_loop(cls); });
      }
    }
  }

  void worker_loop(const std::string& cls) {
    Device dev(spec_for_class(cls));
    ClassQueue& q = queues.at(cls);
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stopping || !q.jobs.empty(); });
        if (q.jobs.empty()) return;  // stopping and drained
        job = std::move(q.jobs.front());
        q.jobs.pop_front();
        ++stats_.running;
      }
      if (job.hooks.on_start) {
        try {
          job.hooks.on_start();
        } catch (...) {
        }
      }
      JobOutcome out;
      {
        // Route g80resil's per-attempt callbacks (fired on this thread,
        // inline with the retry loop) to this job's observer.
        ScopedAttemptObserver scoped(job.hooks.attempts);
        out = run_job(dev, job.req, cfg.policy);
      }
      // Rewind the slot after every job: Device allocates with a bump
      // cursor that only reset() returns to zero, so a slot that skipped
      // it after successful jobs would run out of address space and fail
      // a job with kMemoryAllocation.  After a failed job the reset is
      // also the cross-session isolation step — the next session's job
      // binds to a pristine device — so only that one is counted and
      // reported.  Drain the sticky error too; run_job already reported it.
      dev.get_last_error();
      dev.reset();
      if (out.status != Status::kSuccess) {
        if (job.hooks.on_event) {
          try {
            job.hooks.on_event("device_reset",
                               std::string(status_token(out.status)));
          } catch (...) {
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        --stats_.running;
        if (out.status == Status::kSuccess) {
          ++stats_.jobs_ok;
        } else {
          ++stats_.jobs_failed;
          ++stats_.device_resets;
        }
        stats_.h2d_bytes += out.h2d_bytes;
        stats_.d2h_bytes += out.d2h_bytes;
        stats_.modeled_seconds += out.modeled_seconds;
      }
      try {
        job.done(out);
      } catch (...) {
        // No handler above this frame: an exception escaping a completion
        // callback would std::terminate the daemon for every tenant.  The
        // job's own session is the only party affected; keep the slot
        // serving.
      }
    }
  }

  PoolConfig cfg;
  mutable std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  std::map<std::string, ClassQueue> queues;
  std::vector<std::thread> workers;
  SchedulerStats stats_;
};

Scheduler::Scheduler(PoolConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {}

Scheduler::~Scheduler() { stop(); }

void Scheduler::submit(const JobRequest& req, Callback done, JobHooks hooks) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.stopping) {
      throw StatusError(Status::kNotReady, "scheduler is shutting down");
    }
    auto it = im.queues.find(req.device_class);
    if (it == im.queues.end() || it->second.slots == 0) {
      throw StatusError(Status::kInvalidValue,
                        cat("no device slots for class \"", req.device_class,
                            "\""));
    }
    if (it->second.jobs.size() >= im.cfg.max_queue_depth) {
      ++im.stats_.rejected_not_ready;
      throw StatusError(Status::kNotReady,
                        cat("queue for \"", req.device_class, "\" is full (",
                            im.cfg.max_queue_depth, " jobs)"));
    }
    it->second.jobs.push_back(Job{req, std::move(done), std::move(hooks)});
  }
  im.cv.notify_all();
}

void Scheduler::stop() {
  Impl& im = *impl_;
  std::vector<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.stopping) return;
    im.stopping = true;
    for (auto& [cls, q] : im.queues) {
      for (auto& job : q.jobs) orphans.push_back(std::move(job));
      q.jobs.clear();
    }
  }
  im.cv.notify_all();
  for (auto& t : im.workers) t.join();
  im.workers.clear();
  JobOutcome rejected;
  rejected.status = Status::kNotReady;
  rejected.error = "scheduler stopped before the job ran";
  for (auto& job : orphans) job.done(rejected);
}

SchedulerStats Scheduler::stats() const {
  const Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  SchedulerStats s = im.stats_;
  s.slots = im.cfg.total_slots();
  s.queue_depth = 0;
  for (const auto& [cls, q] : im.queues) {
    s.queue_depth += q.jobs.size();
    s.classes.push_back(ClassQueueStats{cls, q.jobs.size(), q.slots});
  }
  return s;
}

}  // namespace g80::serve
