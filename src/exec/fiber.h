// Cooperative fibers give each simulated GPU thread that parks at a barrier
// a stack of its own, so kernels can call __syncthreads() from arbitrary
// points — inside loops, between shared-memory phases — exactly like CUDA.
//
// Fibers only yield at explicit suspension points (barriers), so a block's
// threads otherwise run to completion in-order; functional results are
// deterministic.
//
// A scheduler enters a fiber with resume().  The fiber gives control back
// with yield(), by finishing, or — without going through the scheduler —
// by handing it to another parked fiber with yield_to().  A chain of
// handoffs costs one stack switch per fiber; resume() returns when the last
// fiber of the chain yields or finishes.
//
// Two interchangeable switch engines sit behind the same interface:
//
//  - kFast: a hand-rolled x86-64 stack switch (fiber_ctx.S) that swaps only
//    the callee-saved registers and FP control words.  A resume + yield
//    round trip is ~40-50 ns on a 4-core x86-64 host.  This is the default
//    on non-sanitized x86-64 builds.
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

  // Switch into the fiber until control comes back: when this fiber, or a
  // fiber it handed off to, yields or finishes.  Returns the state of the
  // fiber that gave control back (kSuspended or kDone).  If that fiber's
  // body threw, the exception is rethrown here on the scheduler's stack.
  State resume();

  // Called from inside the fiber body: suspend back to the scheduler.
  void yield();

  // Called from inside the fiber body: suspend and switch straight into
  // `next`, a different fiber that is armed or parked.  `next` takes over
  // the scheduler frame this fiber would have returned to, so the pending
  // resume() returns once `next` (or a fiber it hands off to) yields or
  // finishes.
  void yield_to(Fiber& next);

  State state() const { return state_; }
  Backend backend() const { return backend_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  static void fast_trampoline(void* self);
  // The scheduler frame a chain of fibers returns to; defined in fiber.cc.
  struct Return;

  void arm_common();
  void arm_ucontext();
  void arm_fast();
  void run_body();
  void arrive(void* fake_stack_save);

  std::vector<char> stack_;
  Backend backend_;
  ucontext_t context_{};
  // Fast-engine saved stack pointer (valid while the fiber is parked).
  void* fast_sp_ = nullptr;
  // Where to give control back; set by resume() or by the fiber that
  // handed off to this one, valid while the fiber runs.
  Return* return_ = nullptr;
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::function<void()> body_;
  std::exception_ptr pending_exception_;
  State state_ = State::kIdle;
  // ThreadSanitizer fiber context (nullptr in non-TSan builds).  Without it
  // TSan's shadow stack is left describing the scheduler while fiber frames
  // execute, producing bogus races and stack-corruption reports.
  void* tsan_fiber_ = nullptr;
};

}  // namespace g80
