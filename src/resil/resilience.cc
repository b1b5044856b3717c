#include "resil/resilience.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "sanitizer/sanitizer.h"  // classify_fault

namespace g80 {

Watchdog::Watchdog(CancelToken* token, double timeout_s, std::string what)
    : token_(token) {
  thread_ = std::thread([this, timeout_s, what = std::move(what)] {
    std::unique_lock<std::mutex> lk(mu_);
    const bool disarmed =
        cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                     [&] { return disarmed_; });
    if (disarmed) return;
    std::ostringstream os;
    os << what << " exceeded its " << timeout_s << " s wall-clock budget";
    token_->request(Status::kTimeout, os.str());
  });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    disarmed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void run_resilient(const ResiliencePolicy& policy, ResilienceStats& out,
                   const std::function<void(const AttemptConfig&)>& attempt,
                   AttemptObserver* obs) {
  if (!policy.enabled) {
    // The disabled path still reports its single attempt: a trace should
    // show one attempt whether or not the retry machinery is armed.
    if (obs != nullptr) obs->on_attempt_start(0, 0);
    try {
      attempt(AttemptConfig{});
    } catch (const StatusError& e) {
      if (obs != nullptr) obs->on_attempt_failure(0, e.status(), false);
      throw;
    } catch (const Error&) {
      if (obs != nullptr) {
        obs->on_attempt_failure(0, Status::kLaunchFailure, false);
      }
      throw;
    }
    if (obs != nullptr) obs->on_attempt_success(0, false);
    out.attempts = 1;
    return;
  }

  // Accumulate locally: the caller's attempt body may clear `out`'s parent
  // object at the start of every retry (launch() rebuilds LaunchStats), so
  // the history is published only once, on the way out.
  ResilienceStats st;
  int fallback = 0;
  double backoff = policy.backoff_initial_s;
  int inject_left = policy.inject_transient_failures;

  // Records a failed attempt; returns true when it should be retried (after
  // taking the backoff sleep and escalating the fallback level).
  const auto note_failure = [&](int a, Status s) -> bool {
    if (s == Status::kTimeout) st.timed_out = true;
    st.history.push_back({a, fallback, s, 0.0});
    if (classify_fault(s) != FaultClass::kTransient || a >= policy.max_retries) {
      if (obs != nullptr) obs->on_attempt_failure(a, s, false);
      st.attempts = a + 1;
      st.fallback_level = fallback;
      out = std::move(st);
      return false;
    }
    if (obs != nullptr) obs->on_attempt_failure(a, s, true);
    if (policy.allow_fallback && fallback < kMaxFallbackLevel) ++fallback;
    if (backoff > 0) {
      st.history.back().backoff_s = backoff;
      st.total_backoff_s += backoff;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= policy.backoff_multiplier;
    }
    return true;
  };

  for (int a = 0;; ++a) {
    if (obs != nullptr) obs->on_attempt_start(a, fallback);
    CancelToken token;
    // Arm the wall-clock watchdog for this attempt only; the token is fresh
    // per attempt so an earlier timeout cannot poison the retry.
    std::unique_ptr<Watchdog> dog;
    if (policy.wall_timeout_s > 0) {
      dog = std::make_unique<Watchdog>(
          &token, policy.wall_timeout_s,
          "launch attempt " + std::to_string(a));
    }
    try {
      if (inject_left > 0) {
        --inject_left;
        throw StatusError(
            Status::kLaunchFailure,
            "injected transient fault "
            "(ResiliencePolicy::inject_transient_failures test hook)");
      }
      attempt(AttemptConfig{a, fallback, dog ? &token : nullptr});
      if (obs != nullptr) obs->on_attempt_success(a, a > 0);
      st.history.push_back({a, fallback, Status::kSuccess, 0.0});
      st.attempts = a + 1;
      st.fallback_level = fallback;
      st.recovered = a > 0;
      out = std::move(st);
      return;
    } catch (const StatusError& e) {
      if (!note_failure(a, e.status())) throw;
    } catch (const Error&) {
      // Unclassified simulator errors behave like kLaunchFailure: transient,
      // hence retryable; rethrown unchanged once the budget is exhausted.
      if (!note_failure(a, Status::kLaunchFailure)) throw;
    }
  }
}

}  // namespace g80
