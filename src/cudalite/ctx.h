// The per-thread execution context — cudalite's equivalent of CUDA's
// implicit device-side environment (threadIdx/blockIdx, __syncthreads,
// __shared__ allocation, memory spaces, and intrinsic math).
//
// Kernels are written once as templates over the context type:
//
//   struct SaxpyKernel {
//     float a; int n;
//     template <class Ctx>
//     void operator()(Ctx& ctx, DeviceBuffer<float>& x, DeviceBuffer<float>& y) const {
//       auto X = ctx.global(x);
//       auto Y = ctx.global(y);
//       const int i = ctx.global_thread_x();
//       if (ctx.branch(i < n)) Y.st(i, ctx.mad(a, X.ld(i), Y.ld(i)));
//     }
//   };
//
// Arithmetic goes through the ctx wrappers so the tracing instantiation can
// count PTX-granularity instruction classes — the same counting the paper
// performs on PTX dumps to estimate potential throughput (§4.1).  Loop/index
// overhead that real code would spend in integer instructions is annotated
// with ctx.ialu()/ctx.misc() at the points where nvcc would emit it.
#pragma once

#include <cmath>
#include <cstdint>
#include <source_location>
#include <span>

#include "common/error.h"
#include "cudalite/device.h"
#include "cudalite/dim3.h"
#include "cudalite/recorder.h"
#include "exec/block_runner.h"

namespace g80 {

// Geometry and machinery shared by every thread of one block.
struct BlockEnv {
  BlockRunner* runner = nullptr;
  Dim3 grid_dim, block_dim, block_idx;
};

template <class Recorder>
class Ctx;

// Static-instruction identity: a stable hash of the call site of a memory
// access, branch or barrier, used to line lanes up into warp-level
// instructions (see trace_arena.h).
inline std::uint32_t site_id(const std::source_location& loc) {
  const auto file = reinterpret_cast<std::uintptr_t>(loc.file_name());
  return static_cast<std::uint32_t>(
      (file >> 4) * 2654435761u ^ (loc.line() << 10) ^ loc.column());
}

// ---- Typed views over the memory spaces -----------------------------------

template <class Recorder, class T>
class GlobalView {
 public:
  GlobalView(Ctx<Recorder>* ctx, T* data, std::uint64_t base, std::size_t n)
      : ctx_(ctx), data_(data), base_(base), n_(n) {}

  T ld(std::size_t i,
       const std::source_location& loc = std::source_location::current()) const {
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "global load out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kLoadGlobal, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    return data_[i];
  }
  void st(std::size_t i, const T& v,
          const std::source_location& loc = std::source_location::current()) {
    // g80check fault injection may deterministically redirect this store out
    // of bounds (FaultInjection::corrupt_global_*), modeling a wild device
    // pointer; compiled out of other contexts.
    if constexpr (Recorder::kSanitizing) {
      i = ctx_->rec().fault_global_index(i, n_);
    }
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "global store out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kStoreGlobal, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    data_[i] = v;
  }
  std::size_t size() const { return n_; }

 private:
  Ctx<Recorder>* ctx_;
  T* data_;
  std::uint64_t base_;
  std::size_t n_;
};

template <class Recorder, class T>
class SharedView {
 public:
  SharedView(Ctx<Recorder>* ctx, T* data, std::uint64_t base_offset, std::size_t n)
      : ctx_(ctx), data_(data), base_(base_offset), n_(n) {}

  T ld(std::size_t i,
       const std::source_location& loc = std::source_location::current()) const {
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "shared load out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kLoadShared, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    return data_[i];
  }
  void st(std::size_t i, const T& v,
          const std::source_location& loc = std::source_location::current()) {
    // g80check fault injection may deterministically redirect this store
    // (FaultInjection::corrupt_store_*); compiled out of other contexts.
    if constexpr (Recorder::kSanitizing) {
      i = ctx_->rec().fault_shared_index(i, n_);
    }
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "shared store out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kStoreShared, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    data_[i] = v;
  }
  std::size_t size() const { return n_; }

 private:
  Ctx<Recorder>* ctx_;
  T* data_;
  std::uint64_t base_;  // byte offset within the SM's shared memory
  std::size_t n_;
};

template <class Recorder, class T>
class ConstView {
 public:
  ConstView(Ctx<Recorder>* ctx, const T* data, std::uint64_t base, std::size_t n)
      : ctx_(ctx), data_(data), base_(base), n_(n) {}

  T ld(std::size_t i,
       const std::source_location& loc = std::source_location::current()) const {
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "constant load out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kLoadConst, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    return data_[i];
  }
  std::size_t size() const { return n_; }

 private:
  Ctx<Recorder>* ctx_;
  const T* data_;
  std::uint64_t base_;
  std::size_t n_;
};

template <class Recorder, class T>
class TexView {
 public:
  TexView(Ctx<Recorder>* ctx, const T* data, std::uint64_t base, std::size_t n)
      : ctx_(ctx), data_(data), base_(base), n_(n) {}

  T fetch(std::size_t i,
          const std::source_location& loc = std::source_location::current()) const {
    G80_RAISE_IF(i >= n_, Status::kInvalidAddress,
                 "texture fetch out of bounds: " << i << " >= " << n_);
    ctx_->rec().mem(OpClass::kLoadTexture, base_ + i * sizeof(T), sizeof(T),
                    site_id(loc), loc);
    return data_[i];
  }
  std::size_t size() const { return n_; }

 private:
  Ctx<Recorder>* ctx_;
  const T* data_;
  std::uint64_t base_;
  std::size_t n_;
};

// ---- The context -----------------------------------------------------------

template <class Recorder>
class Ctx {
 public:
  Ctx(BlockEnv* env, int linear_tid, Recorder rec)
      : env_(env), tid_(linear_tid), rec_(rec) {}

  // --- Geometry ---
  Dim3 thread_idx() const { return delinearize(tid_, env_->block_dim); }
  const Dim3& block_idx() const { return env_->block_idx; }
  const Dim3& block_dim() const { return env_->block_dim; }
  const Dim3& grid_dim() const { return env_->grid_dim; }
  int linear_tid() const { return tid_; }
  // blockIdx.x * blockDim.x + threadIdx.x, the ubiquitous global index.
  int global_thread_x() const {
    return static_cast<int>(env_->block_idx.x * env_->block_dim.x) +
           static_cast<int>(thread_idx().x);
  }

  // --- Barrier (bar.sync) ---
  void sync(const std::source_location& loc = std::source_location::current()) {
    rec_.count(OpClass::kSync);
    rec_.sync_site(site_id(loc), loc);
    // g80check fault injection may skip this thread's barrier
    // (FaultInjection::skip_barrier_*); compiled out of other contexts.
    if constexpr (Recorder::kSanitizing) {
      if (rec_.skip_barrier()) return;
    }
    env_->runner->sync(
        tid_, SyncPoint{site_id(loc), loc.file_name(),
                        static_cast<int>(loc.line())});
  }

  // --- Shared memory (__shared__) ---
  template <class T>
  SharedView<Recorder, T> shared(std::size_t n) {
    std::byte* p = env_->runner->shared().allocate(tid_, n * sizeof(T));
    const auto offset =
        static_cast<std::uint64_t>(p - env_->runner->shared().data());
    return SharedView<Recorder, T>(this, reinterpret_cast<T*>(p), offset, n);
  }

  // --- Memory-space view factories ---
  template <class T>
  GlobalView<Recorder, T> global(DeviceBuffer<T>& b) {
    return GlobalView<Recorder, T>(this, b.raw(), b.device_addr(), b.size());
  }
  template <class T>
  ConstView<Recorder, T> constant(const ConstantBuffer<T>& b) {
    return ConstView<Recorder, T>(this, b.raw(), b.device_addr(), b.size());
  }
  template <class T>
  TexView<Recorder, T> texture(const Texture1D<T>& b) {
    return TexView<Recorder, T>(this, b.raw(), b.device_addr(), b.size());
  }

  // --- Floating point (SP-executed) ---
  float mad(float a, float b, float c) {
    rec_.count(OpClass::kFMad);
    rec_.flops(2);
    return a * b + c;
  }
  float mul(float a, float b) {
    rec_.count(OpClass::kFMul);
    rec_.flops(1);
    return a * b;
  }
  float add(float a, float b) {
    rec_.count(OpClass::kFAdd);
    rec_.flops(1);
    return a + b;
  }
  float sub(float a, float b) {
    rec_.count(OpClass::kFAdd);
    rec_.flops(1);
    return a - b;
  }
  float fmin(float a, float b) {
    rec_.count(OpClass::kFCmp);
    return a < b ? a : b;
  }
  float fmax(float a, float b) {
    rec_.count(OpClass::kFCmp);
    return a > b ? a : b;
  }
  bool fcmp(bool outcome) {  // explicit FP compare producing a predicate
    rec_.count(OpClass::kFCmp);
    return outcome;
  }

  // --- Special function unit (rcp/rsqrt/sin/cos/exp/log, §3.2) ---
  float sinf(float x) { return sfu(std::sin(x)); }
  float cosf(float x) { return sfu(std::cos(x)); }
  float expf(float x) { return sfu(std::exp(x)); }
  float logf(float x) { return sfu(std::log(x)); }
  float sqrtf(float x) { return sfu(std::sqrt(x)); }  // rsqrt + rcp on G80
  float rsqrtf(float x) { return sfu(1.0f / std::sqrt(x)); }
  float rcpf(float x) { return sfu(1.0f / x); }
  // fdiv compiles to rcp + mul.
  float fdiv(float a, float b) { return mul(a, rcpf(b)); }

  // --- Integer / control-flow annotations ---
  // Count integer ALU work (address arithmetic, induction variables) at the
  // points nvcc would emit it.
  void ialu(int n = 1) { rec_.count(OpClass::kIAlu, n); }
  int imul(int a, int b) {
    rec_.count(OpClass::kIMul);
    return a * b;
  }
  void misc(int n = 1) { rec_.count(OpClass::kMisc, n); }
  // Conditional branch: counts the instruction and records the outcome so
  // the collector can measure warp divergence.
  bool branch(bool cond,
              const std::source_location& loc = std::source_location::current()) {
    rec_.count(OpClass::kBranch);
    rec_.branch_outcome(cond, site_id(loc));
    return cond;
  }
  // Unconditional loop back-edge.
  void loop_branch() { rec_.count(OpClass::kBranch); }

  Recorder& rec() { return rec_; }

 private:
  float sfu(double result) {
    rec_.count(OpClass::kSfu);
    rec_.flops(1);
    return static_cast<float>(result);
  }

  BlockEnv* env_;
  int tid_;
  Recorder rec_;
};

using FuncCtx = Ctx<NullRecorder>;
using TraceCtx = Ctx<LaneRecorder>;

}  // namespace g80
