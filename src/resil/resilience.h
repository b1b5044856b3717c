// g80resil execution machinery: the per-attempt watchdog and the
// retry/backoff/fallback driver that cudalite's launch() wraps around its
// passes.  This layer sits *below* cudalite (launch.h includes it), so it
// deliberately knows nothing about LaunchStats or Device — the launch body
// is an opaque callable and all communication happens through AttemptConfig
// and thrown StatusErrors.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/error.h"
#include "exec/cancel.h"
#include "resil/policy.h"

namespace g80 {

// What one attempt of a resilient launch needs to know about itself.
struct AttemptConfig {
  int attempt = 0;         // 0-based attempt number
  int fallback_level = 0;  // graceful-degradation level (see policy.h)
  // Cancellation token armed by the wall-clock watchdog; null when no
  // watchdog is running.  The launch threads it into every cancellation
  // point (WorkerPool::parallel_for, BlockRunner barrier scheduler).
  const CancelToken* cancel = nullptr;
};

// RAII wall-clock watchdog: arms a timer thread that fires
// `token->request(Status::kTimeout, ...)` once `timeout_s` elapses, and
// disarms (joining the thread) on destruction.  Firing is asynchronous and
// advisory — the watched work stops at its next cancellation point; a body
// with no such point (a single non-syncing kernel thread) is not
// preemptible, by design (see exec/cancel.h).
class Watchdog {
 public:
  Watchdog(CancelToken* token, double timeout_s, std::string what);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  CancelToken* token_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

// Observer of the retry driver's attempt lifecycle, passed explicitly to
// run_resilient (cudalite: LaunchOptions::attempts), so it sees exactly the
// attempts of the launch it was handed to — which is how g80obs routes
// per-attempt events into the owning request's trace without this layer
// knowing anything about serving.  Callbacks fire on the launching thread,
// inline with the retry loop; they must not throw.
class AttemptObserver {
 public:
  virtual ~AttemptObserver() = default;
  // Before the attempt body runs (attempt is 0-based; a start with
  // attempt > 0 is a retry).
  virtual void on_attempt_start(int attempt, int fallback_level) {}
  // After a failed attempt; `will_retry` says whether the driver is about
  // to run another attempt or rethrow.
  virtual void on_attempt_failure(int attempt, Status status,
                                  bool will_retry) {}
  // After the attempt that succeeded.
  virtual void on_attempt_success(int attempt, bool recovered) {}
};

// Runs `attempt` under the policy: each attempt gets a fresh CancelToken
// (watchdog-armed when wall_timeout_s > 0); a thrown StatusError is
// classified (classify_fault) and transient failures are retried — with
// exponential backoff and, when allowed, an escalated fallback level — up
// to max_retries times.  Permanent failures and exhausted budgets rethrow
// the final attempt's exception.  `out` receives the full attempt history
// whether the launch ultimately succeeded or not.  `observer` (null = none)
// hears every attempt, the disabled path's single one included.
//
// With `policy.enabled == false` the body runs exactly once, with no token,
// no watchdog, and no try/catch re-dispatch — the seed launch path.
void run_resilient(const ResiliencePolicy& policy, ResilienceStats& out,
                   const std::function<void(const AttemptConfig&)>& attempt,
                   AttemptObserver* observer = nullptr);

}  // namespace g80
