#include "exec/block_runner.h"

#include <algorithm>

namespace g80 {

SharedArena::SharedArena(std::size_t capacity_bytes) : storage_(capacity_bytes) {}

void SharedArena::begin_block() {
  layout_.clear();
  layout_end_ = 0;
  std::fill(cursor_.begin(), cursor_.end(), 0);
}

void SharedArena::begin_thread(int tid) {
  if (static_cast<std::size_t>(tid) >= cursor_.size())
    cursor_.resize(tid + 1, 0);
  cursor_[tid] = 0;
}

std::byte* SharedArena::allocate(int tid, std::size_t bytes) {
  constexpr std::size_t kAlign = 16;
  const std::size_t idx = cursor_.at(tid)++;
  if (idx < layout_.size()) {
    // A previous thread already defined this slot; sizes must agree.
    G80_CHECK_MSG(layout_[idx].second == bytes,
                  "thread " << tid << " shared allocation #" << idx << " of "
                            << bytes << " B mismatches block layout of "
                            << layout_[idx].second << " B");
    return storage_.data() + layout_[idx].first;
  }
  G80_CHECK_MSG(idx == layout_.size(), "non-sequential shared allocation");
  const std::size_t offset = (layout_end_ + kAlign - 1) / kAlign * kAlign;
  G80_RAISE_IF(offset + bytes > storage_.size(), Status::kLaunchOutOfResources,
               "shared memory overflow: block needs " << offset + bytes
                   << " B of the SM's " << storage_.size() << " B");
  layout_.emplace_back(offset, bytes);
  layout_end_ = offset + bytes;
  return storage_.data() + offset;
}

BlockRunner::BlockRunner(int max_threads, std::size_t smem_capacity,
                         std::size_t stack_bytes, Fiber::Backend backend)
    : stack_bytes_(stack_bytes), backend_(backend), shared_(smem_capacity) {
  fibers_.reserve(max_threads);
  status_.reserve(max_threads);
}

void BlockRunner::lane_entry(void* arg) {
  const auto* lane = static_cast<const LaneArg*>(arg);
  (*lane->runner->body_)(lane->tid);
}

void BlockRunner::sync(int tid, SyncPoint at) {
  G80_RAISE_IF(direct_mode_, Status::kInvalidConfiguration,
               "__syncthreads called in a launch declared barrier-free "
               "(LaunchOptions::uses_sync == false)");
  status_.at(tid) = ThreadStatus::kAtBarrier;
  // Park-site bookkeeping feeds BarrierSnapshot only; unobserved runs skip
  // the store (sync_points_ is not even sized then).
  if (observer_ != nullptr) sync_points_[tid] = at;
  // Hand control straight to the next thread of this pass; only the pass's
  // last thread goes back to run().  The release that resumes this thread
  // has already flipped it back to kRunning.
  const int next = next_running(tid + 1);
  if (next < static_cast<int>(status_.size())) {
    current_ = next;
    fibers_[tid]->yield_to(*fibers_[next]);
  } else {
    fibers_[tid]->yield();
  }
}

int BlockRunner::next_running(int from) const {
  const int n = static_cast<int>(status_.size());
  while (from < n && status_[from] != ThreadStatus::kRunning) ++from;
  return from;
}

void BlockRunner::run_direct(int num_threads,
                             const std::function<void(int)>& body) {
  G80_CHECK(num_threads > 0);
  direct_mode_ = true;
  shared_.begin_block();
  barriers_executed_ = 0;
  for (int t = 0; t < num_threads; ++t) {
    // Cancellation point between threads (no barriers exist in this mode).
    if (cancel_ != nullptr) cancel_->check("direct-mode thread loop");
    shared_.begin_thread(t);
    body(t);
  }
  direct_mode_ = false;
}

void BlockRunner::run(int num_threads, const std::function<void(int)>& body) {
  G80_CHECK(num_threads > 0);
  direct_mode_ = false;
  while (static_cast<int>(fibers_.size()) < num_threads)
    fibers_.push_back(std::make_unique<Fiber>(stack_bytes_, backend_));
  status_.assign(num_threads, ThreadStatus::kRunning);
  if (observer_ != nullptr) sync_points_.assign(num_threads, SyncPoint{});
  exited_this_interval_.clear();
  shared_.begin_block();
  barriers_executed_ = 0;

  // Arm one fiber per lane through the raw entry point: the body lives once
  // on the runner and each lane carries a stable (runner, tid) pair, so
  // arming a 256-thread block allocates nothing.  Resize before arming —
  // the fibers hold pointers into lane_args_, so it must not move later.
  body_ = &body;
  if (static_cast<int>(lane_args_.size()) < num_threads) {
    lane_args_.resize(num_threads);
    for (int t = 0; t < num_threads; ++t) lane_args_[t] = LaneArg{this, t};
  }
  for (int t = 0; t < num_threads; ++t) {
    shared_.begin_thread(t);
    fibers_[t]->start(&BlockRunner::lane_entry, &lane_args_[t]);
  }

  int live = num_threads;
  while (live > 0) {
    // Cancellation point (g80resil): the scheduler regains control between
    // barrier generations, so a fired watchdog preempts even a block whose
    // threads synchronize forever.  Suspended fibers are abandoned here and
    // re-armed from scratch on the next run().
    if (cancel_ != nullptr) cancel_->check("block barrier scheduler");
    // One scheduling pass: advance every live thread, in thread-index order,
    // to its next barrier or exit.  Invariant at pass start: every live
    // thread is kRunning (fresh arm, or the release below flipped it back).
    // A thread that parks hands off to the next one itself (see sync()), so
    // resume() returns only when a thread exits, throws, or parks last;
    // current_ names that thread and the pass continues after it.
    for (int t = next_running(0); t < num_threads;
         t = next_running(current_ + 1)) {
      current_ = t;
      if (fibers_[t]->resume() == Fiber::State::kDone) {
        status_[current_] = ThreadStatus::kDone;
        --live;
        if (observer_) exited_this_interval_.push_back(current_);
      }
      // kSuspended means the pass's last thread parked in sync().
    }
    if (live == 0) break;

    // After a pass every live thread is parked at the barrier (a pass only
    // ends a thread Done or AtBarrier), so the barrier releases.  Threads
    // that already exited no longer participate — the behaviour observed on
    // the real hardware (CUDA leaves a barrier reached by a strict subset
    // undefined; G80 barriers count only active threads).
    if (observer_) {
      BarrierSnapshot snap;
      snap.epoch = barriers_executed_;
      for (int t = 0; t < num_threads; ++t)
        if (status_[t] == ThreadStatus::kAtBarrier)
          snap.waiting.push_back({t, sync_points_[t]});
      snap.exited = exited_this_interval_;
      exited_this_interval_.clear();
      observer_->on_barrier_release(snap);
    }
    ++barriers_executed_;
    for (int t = 0; t < num_threads; ++t)
      if (status_[t] == ThreadStatus::kAtBarrier)
        status_[t] = ThreadStatus::kRunning;
  }
}

}  // namespace g80
