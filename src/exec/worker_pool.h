// Persistent host worker pool: the block-scheduling layer of the g80rt
// runtime.  Grid blocks are independent by the CUDA programming model (the
// paper's §2 execution model), so the functional and trace passes of a
// launch can fan their blocks out across host threads.
//
// parallel_for is caller-participating: the invoking thread always claims
// chunks itself, with idle pool threads joining in, so forward progress
// never depends on pool availability — a stream thread already running on
// the pool's behalf can nest a parallel_for without deadlock.  Each
// participant owns one slot for the duration of the call, so per-slot
// scratch (e.g. a launch's trace lane buffers) needs no locking.
// Exceptions are recorded with the index that raised them and the
// lowest-index one is rethrown after the loop drains, so error behaviour is
// deterministic regardless of thread interleaving.
//
// Scheduling is block-chunked work stealing: the index space is
// pre-partitioned into one contiguous shard per slot, owners pop
// geometrically shrinking chunks off their shard's front, and a slot whose
// shard drains steals the back half of the richest remaining shard — so
// tail blocks of a skewed grid never leave workers idle.  Which slot runs
// which index is timing-dependent, but every index runs exactly once, so
// anything keyed by index (block traces, outputs) stays deterministic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/cancel.h"

namespace g80 {

class WorkerPool {
 public:
  // Total parallel width including the calling thread: a pool of width N
  // spawns N-1 helper threads.  Width <= 1 runs everything on the caller.
  explicit WorkerPool(int width);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int width() const { return width_; }

  // Calls body(slot, index) for every index in [0, total).  The caller works
  // as slot 0; helpers that pick the job up take slots 1..width-1.  Returns
  // only after every index has been processed (or attempted); if any calls
  // threw, the exception from the lowest index is rethrown.
  //
  // `cancel` (optional) is a cancellation point between blocks: once the
  // token fires, no further indices are claimed, in-flight bodies finish,
  // and — unless a body exception takes precedence — the token's
  // StatusError is thrown so skipped work is never reported as success.
  void parallel_for(std::uint64_t total,
                    const std::function<void(int, std::uint64_t)>& body,
                    const CancelToken* cancel = nullptr);

  // Pool width to use when the caller gave no explicit request (0):
  // hardware_concurrency clamped to [1, 16].
  static int default_width(int requested = 0);

 private:
  struct Job;

  void helper_loop();
  static void work(Job& job, int slot);

  int width_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers wait for claimable jobs
  std::condition_variable done_cv_;  // callers wait for their helpers
  std::vector<Job*> jobs_;           // active jobs (owned by caller stacks)
  bool stopping_ = false;
};

}  // namespace g80
