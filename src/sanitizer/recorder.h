// Recorder policy that instantiates Ctx for the g80check sanitized sweep.
//
// Instruction counting and tracing hooks are empty (the sanitized sweep does
// not feed the timing model); shared-memory accesses are forwarded — with
// their kernel-source locations — into the Sanitizer's shadow memory, and
// the fault-injection queries are answered from per-thread dynamic counters
// so "thread T's n-th store / n-th barrier" is deterministic.
#pragma once

#include <cstdint>
#include <source_location>

#include "hw/isa.h"
#include "sanitizer/sanitizer.h"

namespace g80 {

class SanitizerRecorder {
 public:
  static constexpr bool kSanitizing = true;

  SanitizerRecorder(Sanitizer* san, int tid) : san_(san), tid_(tid) {}

  void count(OpClass, int = 1) {}
  void flops(double) {}

  void mem(OpClass c, std::uint64_t addr, std::uint32_t size,
           std::uint32_t site, const std::source_location& loc) {
    // For shared accesses `addr` is the byte offset within the SM arena.
    const AccessSite at{site, loc.file_name(), static_cast<int>(loc.line())};
    if (c == OpClass::kLoadShared) {
      san_->on_shared_read(tid_, addr, size, at);
    } else if (c == OpClass::kStoreShared) {
      san_->on_shared_write(tid_, addr, size, at);
    }
  }

  void branch_outcome(bool, std::uint32_t) {}
  void sync_site(std::uint32_t, const std::source_location&) {}

  // --- Fault-injection hooks (called from Ctx under `if constexpr`) ---
  bool skip_barrier() { return san_->should_skip_barrier(tid_, sync_seq_++); }
  std::size_t fault_shared_index(std::size_t i, std::size_t n) {
    return san_->fault_shared_store_index(tid_, store_seq_++, i, n);
  }
  std::size_t fault_global_index(std::size_t i, std::size_t n) {
    return san_->fault_global_store_index(tid_, global_seq_++, i, n);
  }

 private:
  Sanitizer* san_;
  int tid_;
  int sync_seq_ = 0;    // dynamic __syncthreads() count for this thread
  int store_seq_ = 0;   // dynamic shared-store count for this thread
  int global_seq_ = 0;  // dynamic global-store count for this thread
};

}  // namespace g80
