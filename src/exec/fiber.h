// Cooperative fibers used to give every simulated GPU thread its own stack,
// so kernels can call __syncthreads() from arbitrary points — inside loops,
// between shared-memory phases — exactly like CUDA.
//
// Fibers only yield at explicit suspension points (barriers), so a block's
// threads otherwise run to completion in-order; functional results are
// deterministic.
//
// Two interchangeable switch engines sit behind the same interface:
//
//  - kFast: a hand-rolled x86-64 stack switch (fiber_ctx.S) that swaps only
//    the callee-saved registers and FP control words.  ~30 ns per switch.
//    This is the default on non-sanitized x86-64 builds.
//  - kUcontext: glibc swapcontext, which performs an rt_sigprocmask syscall
//    per switch (~300 ns + syscall).  Required under ASan/TSan — the fast
//    engine has no sanitizer fiber annotations — and on other architectures;
//    also selectable per launch via LaunchOptions::fiber_backend, as the
//    bench reference for the old interpreter's cost and for the fuzz tests.
//
// Both engines are bit-identical in observable behaviour (scheduling order,
// exception propagation, barrier counts); tests/exec_fastpath_test.cc
// asserts this directly.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace g80 {

class Fiber {
 public:
  enum class State { kIdle, kRunnable, kSuspended, kDone };
  enum class Backend { kFast, kUcontext };

  // True when the hand-rolled switch is usable in this build (x86-64,
  // no ASan/TSan instrumentation).
  static bool fast_backend_supported();

  // The build-time choice: kFast when supported, else kUcontext.
  static Backend default_backend();

  // Requests for kFast degrade silently to kUcontext when unsupported, so
  // callers can pass a backend through unconditionally.
  explicit Fiber(std::size_t stack_bytes = 128 * 1024,
                 Backend backend = default_backend());
  ~Fiber();  // releases the TSan fiber context in sanitized builds

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // (Re)arm the fiber with a new body; reuses the stack.
  void start(std::function<void()> body);

  // Allocation-free re-arm for the hot path: no std::function is
  // constructed, the entry function is called with `arg` on first resume.
  using RawEntry = void (*)(void*);
  void start(RawEntry entry, void* arg);

  // Switch into the fiber until it yields or finishes.  Returns the state it
  // ended in (kSuspended or kDone).  If the body threw, the exception is
  // rethrown here on the scheduler's stack.
  State resume();

  // Called from inside the fiber body: suspend back to the scheduler.
  void yield();

  State state() const { return state_; }
  Backend backend() const { return backend_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  static void fast_trampoline(void* self);
  void arm_common();
  void arm_ucontext();
  void arm_fast();
  void run_body();

  std::vector<char> stack_;
  Backend backend_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  // Fast-engine saved stack pointers: the fiber's own (valid while parked)
  // and the scheduler frame to return to (valid while the fiber runs).
  void* fast_sp_ = nullptr;
  void* fast_sched_sp_ = nullptr;
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::function<void()> body_;
  std::exception_ptr pending_exception_;
  State state_ = State::kIdle;
  // Scheduler-stack bounds, learned on first entry; used by the ASan
  // fiber-switch annotations (no-ops in non-sanitized builds).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  // ThreadSanitizer fiber contexts (nullptr in non-TSan builds).  Without
  // them TSan's shadow stack is left describing the scheduler while fiber
  // frames execute, producing bogus races and stack-corruption reports.
  void* tsan_fiber_ = nullptr;
  void* tsan_sched_fiber_ = nullptr;
};

}  // namespace g80
