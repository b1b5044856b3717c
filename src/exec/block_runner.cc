#include "exec/block_runner.h"

namespace g80 {

SharedArena::SharedArena(std::size_t capacity_bytes) : storage_(capacity_bytes) {}

void SharedArena::begin_block(int num_threads) {
  layout_.clear();
  layout_end_ = 0;
  cursor_.assign(num_threads, 0);
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

BlockRunner::BlockRunner(int max_threads, std::size_t smem_capacity)
    : shared_(smem_capacity) {
  thread_fiber_.reserve(max_threads);
  status_.reserve(max_threads);
}

void BlockRunner::fiber_entry(void* arg) {
  auto* self = static_cast<BlockRunner*>(arg);
  const std::function<void(int)>& body = *self->body_;
  const int num_threads = static_cast<int>(self->status_.size());
  int tid = self->current_;
  Fiber* fiber = self->thread_fiber_[tid];
  for (;;) {
    body(tid);
    // Once every thread has started, run() retires tid and this fiber.
    if (self->started_ == num_threads) return;
    // Otherwise this is the first pass and tid, which never parked, is the
    // last thread started: the pass continues with the next unstarted
    // thread, on this stack, without a switch.
    self->finish_thread(tid);
    // Cancellation point between threads, for blocks with no barrier.
    if (self->cancel_ != nullptr) self->cancel_->check("block thread loop");
    tid = self->started_++;
    self->current_ = tid;
    self->thread_fiber_[tid] = fiber;
  }
}

Fiber& BlockRunner::claim_fiber(int tid) {
  if (claimed_ == fibers_.size())
    fibers_.push_back(std::make_unique<Fiber>());
  Fiber* fiber = fibers_[claimed_++].get();
  ++started_;
  thread_fiber_[tid] = fiber;
  fiber->start(&BlockRunner::fiber_entry, this);
  return *fiber;
}

void BlockRunner::finish_thread(int tid) {
  status_[tid] = ThreadStatus::kDone;
  --live_;
  if (observer_ != nullptr) exited_this_interval_.push_back(tid);
}

void BlockRunner::sync(int tid, SyncPoint at) {
  status_.at(tid) = ThreadStatus::kAtBarrier;
  // Park-site bookkeeping feeds BarrierSnapshot only; unobserved runs skip
  // the store (sync_points_ is not even sized then).
  if (observer_ != nullptr) sync_points_[tid] = at;
  // Hand control straight to the next thread of this pass, claiming it a
  // fiber if the pass has not reached it before; only the pass's last
  // thread goes back to run().  This thread keeps its fiber while parked,
  // and the release that resumes it has already flipped it back to
  // kRunning.
  Fiber& self = *thread_fiber_[tid];
  const int next = next_running(tid + 1);
  if (next < static_cast<int>(status_.size())) {
    current_ = next;
    self.yield_to(next < started_ ? *thread_fiber_[next] : claim_fiber(next));
  } else {
    self.yield();
  }
}

int BlockRunner::next_running(int from) const {
  const int n = static_cast<int>(status_.size());
  while (from < n && status_[from] != ThreadStatus::kRunning) ++from;
  return from;
}

void BlockRunner::run(int num_threads, const std::function<void(int)>& body) {
  G80_CHECK(num_threads > 0);
  status_.assign(num_threads, ThreadStatus::kRunning);
  thread_fiber_.resize(num_threads);
  if (observer_ != nullptr) sync_points_.assign(num_threads, SyncPoint{});
  exited_this_interval_.clear();
  shared_.begin_block(num_threads);
  barriers_executed_ = 0;
  body_ = &body;
  started_ = 0;
  live_ = num_threads;
  claimed_ = 0;

  while (live_ > 0) {
    // Cancellation point (g80resil): the scheduler regains control between
    // barrier generations, so a fired watchdog preempts even a block whose
    // threads synchronize forever.  Suspended fibers are abandoned here and
    // re-armed from scratch on the next run().
    if (cancel_ != nullptr) cancel_->check("block barrier scheduler");
    // One scheduling pass: advance every live thread, in thread-index order,
    // to its next barrier or exit.  Invariant at pass start: every live
    // thread is kRunning (not yet started, or the release below flipped it
    // back).  A thread that parks hands off to the next one itself (see
    // sync()), and a fiber whose thread exits in the first pass carries on
    // with the next thread (see fiber_entry()), so resume() returns only
    // when a thread exits once all have started, throws, or parks last;
    // current_ names that thread and the pass continues after it.
    for (int t = next_running(0); t < num_threads;
         t = next_running(current_ + 1)) {
      current_ = t;
      Fiber& fiber = t < started_ ? *thread_fiber_[t] : claim_fiber(t);
      if (fiber.resume() == Fiber::State::kDone) finish_thread(current_);
      // kSuspended means the pass's last thread parked in sync().
    }
    if (live_ == 0) break;

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
