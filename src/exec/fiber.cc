#include "exec/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/error.h"

#if G80_FIBER_FAST
extern "C" {
// fiber_ctx.S: save callee-saved state on the current stack, store the
// resulting rsp through save_sp, then pivot to load_sp and restore.
void g80_ctx_swap(void** save_sp, void* load_sp) noexcept;
// First-entry thunk; only its address is used (planted as the return
// address of a freshly armed stack).
void g80_ctx_entry() noexcept;
}
#else
// AddressSanitizer must be told about every stack switch, or its shadow
// memory still describes the old stack and fake-stack frames are freed under
// a live fiber.  The annotations follow the protocol in
// <sanitizer/common_interface_defs.h>: start_switch before leaving a
// context, finish_switch immediately after arriving in one.
#ifdef G80_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer needs the same courtesy via its own fiber API: each fiber
// gets a __tsan_create_fiber context, and every swapcontext is preceded by
// __tsan_switch_to_fiber naming the destination.  Otherwise TSan attributes
// fiber frames to the scheduler's stack and reports phantom races.
#ifdef G80_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace {

inline void asan_start_switch(void** fake_stack_save, const void* bottom,
                              std::size_t size) {
#ifdef G80_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save; (void)bottom; (void)size;
#endif
}

inline void asan_finish_switch(void* fake_stack_save, const void** bottom_old,
                               std::size_t* size_old) {
#ifdef G80_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save; (void)bottom_old; (void)size_old;
#endif
}

// Frames abandoned on a stack (a cancelled or failed block) leave their
// redzones poisoned; clear them before the pages go back to the OS, where a
// later mapping may reuse the addresses.
inline void asan_unpoison(const void* addr, std::size_t size) {
#ifdef G80_ASAN_FIBERS
  __asan_unpoison_memory_region(addr, size);
#else
  (void)addr; (void)size;
#endif
}

inline void* tsan_create_fiber() {
#ifdef G80_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#ifdef G80_TSAN_FIBERS
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

inline void* tsan_current_fiber() {
#ifdef G80_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void tsan_switch_to(void* fiber) {
#ifdef G80_TSAN_FIBERS
  if (fiber != nullptr) __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

}  // namespace
#endif  // G80_FIBER_FAST

namespace g80 {

// resume() builds one of these on the scheduler's stack.  yield_to() hands
// the pointer down the chain; the fiber that yields or finishes names itself
// in `from` and switches back through it.
struct Fiber::Return {
#if G80_FIBER_FAST
  void* sp = nullptr;  // the scheduler's saved stack pointer
#else
  ucontext_t ctx;  // the scheduler's saved context
  // Scheduler-stack bounds for the ASan annotations, learned by the first
  // fiber to arrive from the scheduler (zero in non-ASan builds).
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;  // the scheduler's TSan context
#endif
  Fiber* from = nullptr;
};

namespace {

std::atomic<std::uint64_t> g_stacks_mapped{0};

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

std::uint64_t Fiber::stacks_mapped() {
  return g_stacks_mapped.load(std::memory_order_relaxed);
}

Fiber::Fiber(std::size_t stack_bytes) {
  G80_CHECK(stack_bytes >= 16 * 1024);
  const std::size_t page = page_bytes();
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  // Mapped read-write and left untouched: the kernel supplies zero pages on
  // first touch, so only the depth a body actually reaches becomes
  // resident.  Failures surface as bad_alloc, like any host allocation.
  void* base = mmap(nullptr, page + stack_bytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(base, page, PROT_NONE) != 0) {
    munmap(base, page + stack_bytes_);
    throw std::bad_alloc();
  }
  stack_ = static_cast<char*>(base) + page;
  g_stacks_mapped.fetch_add(1, std::memory_order_relaxed);
}

Fiber::~Fiber() {
#if !G80_FIBER_FAST
  tsan_destroy_fiber(tsan_fiber_);
  asan_unpoison(stack_, stack_bytes_);
#endif
  const std::size_t page = page_bytes();
  munmap(stack_ - page, page + stack_bytes_);
}

void Fiber::start(std::function<void()> body) {
  body_ = std::move(body);
  raw_entry_ = nullptr;
  raw_arg_ = nullptr;
  arm();
}

void Fiber::start(RawEntry entry, void* arg) {
  raw_entry_ = entry;
  raw_arg_ = arg;
  if (body_) body_ = nullptr;  // drop captures from a previous arming
  arm();
}

void Fiber::arm() {
  // Re-arming is allowed from ANY state: after a sibling thread throws, a
  // launch is abandoned with fibers left kRunnable (armed, never entered) or
  // kSuspended (parked mid-kernel).  Both are re-armed from scratch; old
  // stack frames are discarded without unwinding (locals leak), which is
  // acceptable in this fail-fast simulator.  The scheduler never calls
  // start() from inside a fiber, so the stack being rebuilt is never live.
  pending_exception_ = nullptr;
#if G80_FIBER_FAST
  // Build the initial frame g80_ctx_swap will restore; the layout contract
  // lives at the top of fiber_ctx.S.  Arming is just 56 bytes of stores —
  // no syscall, no allocation — so it is cheap enough to do per block.
  char* top = stack_ + stack_bytes_;
  top -= reinterpret_cast<std::uintptr_t>(top) & 15;  // 16-byte align
  auto put = [&](int off, std::uint64_t v) {
    std::memcpy(top - off, &v, sizeof v);
  };
  put(8, reinterpret_cast<std::uint64_t>(&g80_ctx_entry));
  put(16, 0);  // rbp
  put(24, 0);  // rbx
  put(32, reinterpret_cast<std::uint64_t>(this));  // r12 -> first argument
  put(40, reinterpret_cast<std::uint64_t>(&Fiber::trampoline));  // r13
  put(48, 0);  // r14
  put(56, 0);  // r15
  sp_ = top - 56;
#else
  // A fresh TSan context per arming: an abandoned run's happens-before
  // state must not leak into the next kernel on this reused stack.
  tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = tsan_create_fiber();

  G80_CHECK(getcontext(&context_) == 0);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // the trampoline switches out; it never returns

  // makecontext only passes ints; split the pointer across two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  const auto hi = static_cast<unsigned>(self >> 32);
  const auto lo = static_cast<unsigned>(self & 0xFFFFFFFFu);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2, hi, lo);
#endif
  state_ = State::kRunnable;
}

void Fiber::run_body() {
  try {
    if (raw_entry_ != nullptr) {
      raw_entry_(raw_arg_);
    } else {
      body_();
    }
  } catch (...) {
    pending_exception_ = std::current_exception();
  }
  state_ = State::kDone;
  return_->from = this;
}

#if G80_FIBER_FAST
void Fiber::trampoline(void* self_ptr) {
  auto* self = static_cast<Fiber*>(self_ptr);
  self->run_body();
  // Final switch out; this stack is dead, the saved sp is never resumed.
  void* dead_sp = nullptr;
  g80_ctx_swap(&dead_sp, self->return_->sp);
  __builtin_unreachable();
}
#else
void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  self->arrive(nullptr);  // first entry onto this stack: no fake stack
  self->run_body();
  // nullptr fake-stack save: this fiber's frames are dead after the switch.
  const Return& ret = *self->return_;
  asan_start_switch(nullptr, ret.stack_bottom, ret.stack_size);
  tsan_switch_to(ret.tsan_fiber);
  setcontext(&ret.ctx);
  std::abort();  // setcontext returns only on failure
}

// Runs on every arrival onto this fiber's stack.  The first arrival after a
// resume() comes from the scheduler, so it is the one that records the
// scheduler's stack bounds; later arrivals come from other fibers of the
// chain and leave them alone.
void Fiber::arrive(void* fake_stack_save) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  asan_finish_switch(fake_stack_save, &bottom, &size);
  if (return_->stack_bottom == nullptr) {
    return_->stack_bottom = bottom;
    return_->stack_size = size;
  }
}
#endif

Fiber::State Fiber::resume() {
  G80_CHECK_MSG(state_ == State::kRunnable || state_ == State::kSuspended,
                "resume of a fiber that is not paused");
  state_ = State::kRunnable;
  Return ret;
  return_ = &ret;
#if G80_FIBER_FAST
  g80_ctx_swap(&ret.sp, sp_);
#else
  ret.tsan_fiber = tsan_current_fiber();
  void* fake_stack_save = nullptr;
  asan_start_switch(&fake_stack_save, stack_, stack_bytes_);
  tsan_switch_to(tsan_fiber_);
  G80_CHECK(swapcontext(&ret.ctx, &context_) == 0);
  asan_finish_switch(fake_stack_save, nullptr, nullptr);
#endif
  Fiber* back = ret.from;
  if (back->pending_exception_) {
    auto ex = back->pending_exception_;
    back->pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
  return back->state_;
}

void Fiber::yield() {
  state_ = State::kSuspended;
  return_->from = this;
#if G80_FIBER_FAST
  g80_ctx_swap(&sp_, return_->sp);
#else
  void* fake_stack_save = nullptr;
  asan_start_switch(&fake_stack_save, return_->stack_bottom,
                    return_->stack_size);
  tsan_switch_to(return_->tsan_fiber);
  G80_CHECK(swapcontext(&context_, &return_->ctx) == 0);
  arrive(fake_stack_save);
#endif
}

void Fiber::yield_to(Fiber& next) {
  G80_CHECK_MSG(&next != this && (next.state_ == State::kRunnable ||
                                  next.state_ == State::kSuspended),
                "handoff to a fiber that is not paused");
  state_ = State::kSuspended;
  next.state_ = State::kRunnable;
  next.return_ = return_;
#if G80_FIBER_FAST
  g80_ctx_swap(&sp_, next.sp_);
#else
  void* fake_stack_save = nullptr;
  asan_start_switch(&fake_stack_save, next.stack_, next.stack_bytes_);
  tsan_switch_to(next.tsan_fiber_);
  G80_CHECK(swapcontext(&context_, &next.context_) == 0);
  arrive(fake_stack_save);
#endif
}

}  // namespace g80
