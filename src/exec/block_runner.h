// Executes one thread block: N cooperative threads with CUDA barrier
// semantics and a per-block shared-memory arena.
//
// Threads run in thread-index order between barriers; at a __syncthreads()
// every still-live thread must arrive before any proceeds.  Threads that
// exited no longer participate in barriers — matching the G80's observed
// behaviour (barriers count only active threads; CUDA formally leaves a
// barrier reached by a strict subset of threads undefined).  Deadlock is
// impossible under this scheduler.
//
// Each scheduling pass runs every thread that is still running once, in
// thread-index order, up to its next barrier or exit; threads that exited
// are skipped.  The pass is a chain of handoffs: run() enters the first
// live thread, and a thread parking in sync() switches straight into the
// next live one (Fiber::yield_to), one stack switch per thread.  Control
// comes back to run() only when a thread exits or throws (the pass then
// continues after it) or when the pass's last thread parks, which releases
// the barrier.  Observed and unobserved runs take the same pass, so results
// are bit-identical by construction.
//
// Fibers are claimed lazily, so no caller declares whether its kernel has
// barriers.  A thread gets a fiber when the first pass reaches it, and one
// fiber may carry several consecutive threads: a thread that exits without
// parking hands its stack on to the next thread (in the first pass the
// thread that just finished is always the last one started).  Only a thread
// parked at a barrier keeps a fiber of its own, so a barrier-free block runs
// on one fiber with one resume, and a block whose threads all park uses one
// fiber per thread.
//
// That fixed order is also what makes batched trace recording possible: the
// lanes of a converged warp replay the same instruction stream one after
// another, so the trace arena (cudalite/trace_arena.h) can reconstruct each
// warp-level memory instruction positionally — lane k's j-th access in a
// space IS the warp's j-th instruction there — turning 32 independent
// recorder calls into one SoA batch row per instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.h"
#include "exec/cancel.h"
#include "exec/fiber.h"

namespace g80 {

// Static identity of one __syncthreads() call site, carried from the kernel
// source into barrier bookkeeping so diagnostics can name the barrier.
struct SyncPoint {
  std::uint32_t site = 0;        // site_id hash (0 = unknown, e.g. raw tests)
  const char* file = nullptr;    // kernel source file of the sync() call
  int line = 0;
};

// Snapshot handed to a BarrierObserver at every barrier release: who is
// parked where, and who exited the kernel since the previous release.
struct BarrierSnapshot {
  struct Waiter {
    int tid = 0;
    SyncPoint at;
  };
  int epoch = 0;                 // barrier generation being released (0-based)
  std::vector<Waiter> waiting;
  std::vector<int> exited;       // tids that ran to completion this interval
};

// Callback interface for barrier-semantics validation (g80check).  The
// runner invokes it only when attached; detached runs pay one branch.
class BarrierObserver {
 public:
  virtual ~BarrierObserver() = default;
  virtual void on_barrier_release(const BarrierSnapshot& snap) = 0;
};

// Per-block shared memory arena.  All threads of a block must perform the
// same sequence of allocations (mirroring CUDA's static __shared__ layout);
// the first thread defines the layout, later threads are checked against it.
class SharedArena {
 public:
  explicit SharedArena(std::size_t capacity_bytes);

  // Allocation `index`-th request of `bytes` for thread `tid`; returns the
  // arena offset.  alignment is 16 bytes (float4).
  std::byte* allocate(int tid, std::size_t bytes);

  // Reset the layout and the cursors of threads [0, num_threads).
  void begin_block(int num_threads);
  std::size_t bytes_used() const { return layout_end_; }
  std::size_t capacity() const { return storage_.size(); }
  std::byte* data() { return storage_.data(); }

 private:
  std::vector<std::byte> storage_;
  std::vector<std::pair<std::size_t, std::size_t>> layout_;  // (offset, size)
  std::size_t layout_end_ = 0;
  std::vector<std::size_t> cursor_;  // per-thread next allocation index
};

class BlockRunner {
 public:
  // `max_threads` sizes the per-thread tables; `smem_capacity` is the SM's
  // shared memory size (a block exceeding it fails at launch, not here).
  BlockRunner(int max_threads, std::size_t smem_capacity);

  // Run `num_threads` threads, each executing body(tid).  Bodies may call
  // sync(tid) any number of times, or never.
  void run(int num_threads, const std::function<void(int)>& body);

  // Barrier entry point, called from inside a thread body.  The SyncPoint
  // overload lets diagnostics name the kernel-source barrier.
  void sync(int tid) { sync(tid, SyncPoint{}); }
  void sync(int tid, SyncPoint at);

  SharedArena& shared() { return shared_; }

  // Number of barrier generations completed in the last run (for tracing).
  int barriers_executed() const { return barriers_executed_; }

  // Fibers this runner has built over its lifetime.  A run reuses every
  // fiber built before it, so this grows only with the peak number of
  // threads parked at once (plus one carrying the threads that never park).
  std::size_t fibers_built() const { return fibers_.size(); }

  // Attach/detach a barrier-semantics observer (g80check).  Null detaches.
  void set_barrier_observer(BarrierObserver* obs) { observer_ = obs; }

  // Attach/detach a cooperative cancellation token (g80resil watchdog).
  // Checked at every barrier release and before each thread a fiber carries
  // on to, so a kernel wedged in a __syncthreads() loop, or a long block of
  // barrier-free threads, is cancellable; the abandoned fibers are re-armed
  // by the next run() (see Fiber::start).  Null detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 private:
  enum class ThreadStatus { kRunning, kAtBarrier, kDone };

  // Raw fiber entry (`arg` is the runner): runs thread current_, then the
  // following unstarted threads on the same stack for as long as each one
  // exits without parking.  A plain function pointer keeps arming
  // allocation-free.
  static void fiber_entry(void* arg);

  // Give thread `tid`, the next unstarted one, a free fiber (built if none
  // is left) and arm it.
  Fiber& claim_fiber(int tid);
  void finish_thread(int tid);

  // First thread at index >= from that is kRunning, or status_.size().
  int next_running(int from) const;

  // Every fiber built.  A run claims them in order and releases none before
  // its first pass has started every thread, so the free ones are exactly
  // fibers_[claimed_..]; an aborted run's parked fibers are re-armed then.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t claimed_ = 0;
  std::vector<Fiber*> thread_fiber_;  // the fiber carrying each thread
  std::vector<ThreadStatus> status_;
  std::vector<SyncPoint> sync_points_;  // where each parked thread waits
  std::vector<int> exited_this_interval_;
  const std::function<void(int)>* body_ = nullptr;  // valid during run()
  SharedArena shared_;
  int barriers_executed_ = 0;
  int started_ = 0;  // threads started in this run (always a prefix)
  int live_ = 0;     // threads of this run not yet exited
  // The thread running now; once run()'s resume() returns, the thread that
  // gave control back.
  int current_ = 0;
  BarrierObserver* observer_ = nullptr;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace g80
