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
// The build picks one stack-switch engine (G80_FIBER_FAST below); there is
// no run-time choice:
//
//  - fast (G80_FIBER_FAST == 1): a hand-rolled x86-64 stack switch
//    (fiber_ctx.S) that swaps only the callee-saved registers and ends in an
//    indirect jmp the branch predictor can follow.  A resume + yield round
//    trip is ~25-30 ns on a 4-core x86-64 host.  Every non-sanitized
//    x86-64 build uses it.
//  - ucontext (G80_FIBER_FAST == 0): glibc swapcontext, which performs an
//    rt_sigprocmask syscall per switch (~300 ns + syscall).  ASan/TSan
//    builds use it — only this engine carries the sanitizer fiber
//    annotations — and so does every other CPU.
//
// Both engines are bit-identical in observable behaviour (scheduling order,
// exception propagation, barrier counts): the same test suite, golden trace
// digests included, passes in a plain x86-64 build (fast) and under
// scripts/check_sanitize.sh and scripts/check_tsan.sh (ucontext).
//
// FP control state (rounding mode, flush-to-zero, exception masks) is the
// OS thread's, not the fiber's: the fast engine does not switch it.  A body
// runs in the state its scheduler's thread is in, and a body that changes
// it changes it for that thread, as a plain function call would; the
// scheduler and the fibers it runs next see the change.  Both engines
// guarantee only this: a body sees the state the scheduler's thread had
// when it armed and resumed the fiber, if nothing changed it in between
// (Fiber.BodySeesTheSchedulersFpControlState).  The ucontext engine saves
// and restores the state with each context, so the two differ once a body
// changes it mid-run; no kernel or host code here does.
//
// Each stack is an anonymous mmap region, never zero-filled by us, so a
// fiber costs resident memory only for the pages its bodies touch.  A
// PROT_NONE guard page sits below the usable part: a body that runs off the
// end of its stack dies with SIGSEGV instead of overwriting whatever is
// mapped below.  Mapping a stack costs two syscalls (mmap + mprotect) and
// releasing it one, so owners keep fibers alive and re-arm them
// (BlockRunner keeps its fibers, and launches keep one runner per OS
// thread; see cudalite/launch.h).
#pragma once

// The engine depends only on compiler-wide predefined macros (target CPU,
// -fsanitize), so every file of a build sees the same Fiber layout.
#if defined(__SANITIZE_ADDRESS__)
#define G80_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define G80_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define G80_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define G80_TSAN_FIBERS 1
#endif
#endif

#if defined(__x86_64__) && !defined(G80_ASAN_FIBERS) && !defined(G80_TSAN_FIBERS)
#define G80_FIBER_FAST 1
#else
#define G80_FIBER_FAST 0
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

namespace g80 {

class Fiber {
 public:
  enum class State { kIdle, kRunnable, kSuspended, kDone };

  // Default usable stack size, excluding the guard page.
  static constexpr std::size_t kStackBytes = 128 * 1024;

  // Maps a stack of `stack_bytes` usable bytes (rounded up to whole pages)
  // above a guard page.
  explicit Fiber(std::size_t stack_bytes = kStackBytes);
  ~Fiber();  // unmaps the stack; releases the TSan fiber context

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Stacks mapped by every Fiber of this process so far (monotonic; a
  // relaxed counter, exact once the threads that built fibers are joined or
  // quiescent).
  static std::uint64_t stacks_mapped();

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

 private:
  // The scheduler frame a chain of fibers returns to; defined in fiber.cc.
  struct Return;

  void arm();
  // Runs the body, keeps any exception for resume() and marks the fiber
  // done; the engine's trampoline then switches out for the last time.
  void run_body();

  // Usable stack [stack_, stack_ + stack_bytes_); the guard page lies just
  // below stack_, at the start of the mapping.
  char* stack_ = nullptr;
  std::size_t stack_bytes_ = 0;
#if G80_FIBER_FAST
  static void trampoline(void* self);
  // Saved stack pointer (valid while the fiber is parked).
  void* sp_ = nullptr;
#else
  static void trampoline(unsigned hi, unsigned lo);
  void arrive(void* fake_stack_save);
  ucontext_t context_{};
  // ThreadSanitizer fiber context (nullptr in non-TSan builds).  Without it
  // TSan's shadow stack is left describing the scheduler while fiber frames
  // execute, producing bogus races and stack-corruption reports.
  void* tsan_fiber_ = nullptr;
#endif
  // Where to give control back; set by resume() or by the fiber that
  // handed off to this one, valid while the fiber runs.
  Return* return_ = nullptr;
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::function<void()> body_;
  std::exception_ptr pending_exception_;
  State state_ = State::kIdle;
};

}  // namespace g80
