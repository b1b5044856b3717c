// The simulated compute device: owns "device memory" allocations, assigns
// virtual device addresses (used by the coalescing analyzer), and keeps a
// ledger of host<->device transfers for Table 3's transfer-time column.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "hw/device_spec.h"
#include "timing/model.h"

namespace g80 {

class Device;

// Bookkeeping for explicit host<->device copies (paper §2: "all data
// communication ... between CPU and GPU is explicitly performed through the
// GPU device driver").  Counters are atomic: g80rt stream threads record
// transfers concurrently (each counter is independently monotonic; callers
// read totals only after synchronizing, so no cross-counter snapshot is
// needed).
//
// Two accounting horizons.  The epoch counters (h2d_bytes & co.) are what
// reset() zeroes — apps use them to scope the measurement to one phase, and
// Device::reset() zeroes them as part of tearing execution state down.  The
// lifetime counters keep accumulating across every reset: they are the
// billing-grade totals g80serve's per-client accounting reads, so fault
// recovery (watchdog -> Device::reset -> relaunch) can never erase a
// client's transfer history (docs/serving.md, "Accounting").
class TransferLedger {
 public:
  void record_h2d(std::uint64_t bytes) {
    h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    h2d_count_.fetch_add(1, std::memory_order_relaxed);
    lifetime_h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    lifetime_h2d_count_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_d2h(std::uint64_t bytes) {
    d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    d2h_count_.fetch_add(1, std::memory_order_relaxed);
    lifetime_d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    lifetime_d2h_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // Starts a new epoch; lifetime totals are preserved.
  void reset() {
    h2d_bytes_ = 0;
    d2h_bytes_ = 0;
    h2d_count_ = 0;
    d2h_count_ = 0;
  }

  // --- Current epoch (since construction or the last reset) ---
  std::uint64_t h2d_bytes() const { return h2d_bytes_.load(); }
  std::uint64_t d2h_bytes() const { return d2h_bytes_.load(); }
  std::uint64_t total_bytes() const { return h2d_bytes() + d2h_bytes(); }
  std::uint64_t transfer_count() const {
    return h2d_count_.load() + d2h_count_.load();
  }

  // --- Lifetime (survives reset() and Device::reset()) ---
  std::uint64_t lifetime_h2d_bytes() const { return lifetime_h2d_bytes_.load(); }
  std::uint64_t lifetime_d2h_bytes() const { return lifetime_d2h_bytes_.load(); }
  std::uint64_t lifetime_total_bytes() const {
    return lifetime_h2d_bytes() + lifetime_d2h_bytes();
  }
  std::uint64_t lifetime_transfer_count() const {
    return lifetime_h2d_count_.load() + lifetime_d2h_count_.load();
  }

  double seconds(const DeviceSpec& spec) const {
    return transfer_seconds(spec, total_bytes(), transfer_count());
  }
  double lifetime_seconds(const DeviceSpec& spec) const {
    return transfer_seconds(spec, lifetime_total_bytes(),
                            lifetime_transfer_count());
  }

 private:
  std::atomic<std::uint64_t> h2d_bytes_{0}, d2h_bytes_{0};
  std::atomic<std::uint64_t> h2d_count_{0}, d2h_count_{0};
  std::atomic<std::uint64_t> lifetime_h2d_bytes_{0}, lifetime_d2h_bytes_{0};
  std::atomic<std::uint64_t> lifetime_h2d_count_{0}, lifetime_d2h_count_{0};
};

// Allocator for device-memory backing storage: `calloc` hands out memory
// that is already zero, so value-constructing a trivially default
// constructible element writes nothing.  A large request is a fresh
// anonymous mapping whose pages cost no host memory until written (a read of
// an unwritten page maps the shared zero page); a small one comes from the
// heap, which `calloc` clears.  Any other element type is constructed as
// usual.
template <class T>
struct ZeroedAllocator {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "calloc aligns to max_align_t only");
  using value_type = T;

  ZeroedAllocator() = default;
  template <class U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) != 0 ||
                  !std::is_trivially_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  template <class U>
  bool operator==(const ZeroedAllocator<U>&) const noexcept {
    return true;
  }
};

// A typed span of device memory.  Element types must be trivially copyable
// and 4/8/16 bytes wide (the access sizes G80 can issue), or plain arrays of
// such.  Backing storage lives host-side; the `device_addr` is the virtual
// address the memory analyzers see.  A new buffer reads all zeros, and its
// storage is zero pages until written (ZeroedAllocator), so a large buffer a
// kernel barely touches costs host memory only for what it touches.
template <class T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* dev, std::uint64_t device_addr, std::size_t n)
      : dev_(dev), addr_(device_addr), storage_(n) {}

  std::size_t size() const { return storage_.size(); }
  std::uint64_t device_addr() const { return addr_; }
  std::uint64_t bytes() const { return storage_.size() * sizeof(T); }

  // Explicit transfers (logged).  Implemented in device.h below Device.
  void copy_from_host(std::span<const T> src);
  std::vector<T> copy_to_host() const;
  void fill(const T& v) { std::fill(storage_.begin(), storage_.end(), v); }

  // Direct backing-store access for views and test assertions (does not model
  // a PCIe transfer; use copy_* in application code).
  T* raw() { return storage_.data(); }
  const T* raw() const { return storage_.data(); }

 private:
  Device* dev_ = nullptr;
  std::uint64_t addr_ = 0;
  std::vector<T, ZeroedAllocator<T>> storage_;
};

// Read-only constant-space buffer (64 KB total on G80), served through the
// broadcast constant cache.
template <class T>
class ConstantBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ConstantBuffer() = default;
  ConstantBuffer(Device* dev, std::uint64_t addr, std::size_t n)
      : dev_(dev), addr_(addr), storage_(n) {}

  std::size_t size() const { return storage_.size(); }
  std::uint64_t device_addr() const { return addr_; }
  void copy_from_host(std::span<const T> src);
  const T* raw() const { return storage_.data(); }

 private:
  Device* dev_ = nullptr;
  std::uint64_t addr_ = 0;
  std::vector<T, ZeroedAllocator<T>> storage_;
};

// Read-only texture-space buffer served through the per-SM texture cache.
template <class T>
class Texture1D {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Texture1D() = default;
  Texture1D(Device* dev, std::uint64_t addr, std::size_t n)
      : dev_(dev), addr_(addr), storage_(n) {}

  std::size_t size() const { return storage_.size(); }
  std::uint64_t device_addr() const { return addr_; }
  void copy_from_host(std::span<const T> src);
  const T* raw() const { return storage_.data(); }

 private:
  Device* dev_ = nullptr;
  std::uint64_t addr_ = 0;
  std::vector<T, ZeroedAllocator<T>> storage_;
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::geforce_8800_gtx())
      : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  TransferLedger& ledger() { return ledger_; }
  const TransferLedger& ledger() const { return ledger_; }

  template <class T>
  DeviceBuffer<T> alloc(std::size_t n) {
    return DeviceBuffer<T>(this, allocate_range(checked_bytes<T>(n)), n);
  }

  template <class T>
  ConstantBuffer<T> alloc_constant(std::size_t n) {
    const std::uint64_t bytes = checked_bytes<T>(n);
    if (constant_used_ + bytes > kConstantSpaceBytes) {
      raise(Status::kConstantSpaceExceeded,
            "constant allocation of " + std::to_string(bytes) + " B over " +
                std::to_string(constant_used_) + " B already used exceeds the " +
                std::to_string(kConstantSpaceBytes) + " B constant space");
    }
    // Charge the constant space only once global space has taken the range.
    const std::uint64_t addr = allocate_range(bytes);
    constant_used_ += bytes;
    return ConstantBuffer<T>(this, addr, n);
  }

  template <class T>
  Texture1D<T> alloc_texture(std::size_t n) {
    return Texture1D<T>(this, allocate_range(checked_bytes<T>(n)), n);
  }

  std::uint64_t bytes_allocated() const { return next_addr_ - kBaseAddr; }

  // --- Structured error state (cudaGetLastError / cudaPeekAtLastError) ---
  // The most recent Status raised against this device.  Peek leaves it in
  // place; get clears it back to kSuccess, exactly like the CUDA runtime.
  // Atomic so concurrent g80rt stream threads can record failures without a
  // data race (last writer wins, as with the real runtime's sticky error).
  Status peek_last_error() const { return status_.load(); }
  Status get_last_error() { return status_.exchange(Status::kSuccess); }
  void record_status(Status s) { status_.store(s); }
  // Record `s` sticky and throw StatusError.  Hosts choose their style:
  // catch the exception, or catch-and-ignore then branch on get_last_error().
  [[noreturn]] void raise(Status s, const std::string& msg) {
    record_status(s);
    throw StatusError(s, std::string(status_name(s)) + ": " + msg);
  }

  // --- Recovery semantics (g80resil, cudaDeviceReset-style) ---
  // Tears the device back down to its post-construction state: runs every
  // registered reset hook (g80rt registers one that drains its streams and
  // clears their sticky async errors), clears the sticky Status, starts a
  // new TransferLedger epoch (the ledger's lifetime totals survive, so
  // serve-side per-client accounting is never erased by fault recovery),
  // and releases the whole device address space (allocation cursor and
  // constant-space budget return to zero).
  //
  // Like cudaDeviceReset, this invalidates every outstanding DeviceBuffer /
  // ConstantBuffer / Texture1D handed out by this device: their backing
  // storage stays host-side-valid (no dangling memory), but their virtual
  // device addresses will be reissued to future allocations, so the memory
  // analyzers would see aliased address ranges.  Callers must re-allocate
  // and re-upload after a reset — the fault-campaign engine
  // (resil/campaign.h) demonstrates the full recover-and-relaunch cycle.
  // `generation()` increments on every reset so long-lived layers can detect
  // that their cached handles went stale.
  void reset() {
    // Hooks run first (stream drain must happen while errors/ledger are
    // still observable), outside the registry lock so a hook may touch the
    // device freely.
    std::vector<std::function<void()>> hooks;
    {
      std::lock_guard<std::mutex> lk(hooks_mu_);
      hooks.reserve(reset_hooks_.size());
      for (auto& [id, fn] : reset_hooks_) hooks.push_back(fn);
    }
    for (auto& fn : hooks) fn();
    ledger_.reset();
    next_addr_ = kBaseAddr;
    constant_used_ = 0;
    status_.store(Status::kSuccess);
    generation_.fetch_add(1);
  }

  // Number of resets performed; buffers allocated under an older generation
  // are stale after a reset.
  std::uint64_t generation() const { return generation_.load(); }

  // Registers a callback run at the start of every reset() (e.g. a g80rt
  // Runtime draining its streams).  Returns an id for remove_reset_hook.
  std::uint64_t add_reset_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lk(hooks_mu_);
    const std::uint64_t id = next_hook_id_++;
    reset_hooks_.emplace_back(id, std::move(hook));
    return id;
  }
  void remove_reset_hook(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(hooks_mu_);
    for (auto it = reset_hooks_.begin(); it != reset_hooks_.end(); ++it) {
      if (it->first == id) {
        reset_hooks_.erase(it);
        return;
      }
    }
  }

  static constexpr std::uint64_t kConstantSpaceBytes = 64 * 1024;

 private:
  // Validate an element-count request before any address arithmetic: zero
  // elements and n*sizeof(T) overflow both poison range bookkeeping.
  template <class T>
  std::uint64_t checked_bytes(std::size_t n) {
    if (n == 0) raise(Status::kInvalidValue, "zero-element device allocation");
    if (n > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
      raise(Status::kInvalidValue,
            "allocation size overflows: " + std::to_string(n) + " elements of " +
                std::to_string(sizeof(T)) + " B");
    }
    return static_cast<std::uint64_t>(n) * sizeof(T);
  }

  std::uint64_t allocate_range(std::uint64_t bytes) {
    // cudaMalloc-style 256 B alignment keeps row starts on 16-word lines.
    constexpr std::uint64_t kAlign = 256;
    const std::uint64_t addr = (next_addr_ + kAlign - 1) / kAlign * kAlign;
    if (addr + bytes - kBaseAddr > spec_.global_mem_bytes) {
      raise(Status::kMemoryAllocation,
            "device memory exhausted: " + std::to_string(addr + bytes - kBaseAddr) +
                " B > " + std::to_string(spec_.global_mem_bytes) +
                " B (the paper's PNS capacity limit, Table 3)");
    }
    // G80 device addresses are 32-bit; the trace arena stores them so.
    // Raised here, before the caller builds any host storage.
    if (bytes > kAddressSpaceEnd - addr) {
      raise(Status::kMemoryAllocation,
            "device address space exhausted: a " + std::to_string(bytes) +
                " B range at " + std::to_string(addr) +
                " would end past the 32-bit limit");
    }
    next_addr_ = addr + bytes;
    return addr;
  }

  static constexpr std::uint64_t kBaseAddr = 1 << 20;
  static constexpr std::uint64_t kAddressSpaceEnd = 1ull << 32;

  DeviceSpec spec_;
  TransferLedger ledger_;
  // Allocation is host-thread-only (as in CUDA 0.8, where cudaMalloc is a
  // synchronous driver call); these two need no synchronization.
  std::uint64_t next_addr_ = kBaseAddr;
  std::uint64_t constant_used_ = 0;
  std::atomic<Status> status_{Status::kSuccess};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex hooks_mu_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> reset_hooks_;
  std::uint64_t next_hook_id_ = 1;
};

template <class T>
void DeviceBuffer<T>::copy_from_host(std::span<const T> src) {
  G80_CHECK(src.size() <= storage_.size());
  std::memcpy(storage_.data(), src.data(), src.size_bytes());
  if (dev_) dev_->ledger().record_h2d(src.size_bytes());
}

template <class T>
std::vector<T> DeviceBuffer<T>::copy_to_host() const {
  if (dev_) dev_->ledger().record_d2h(bytes());
  return std::vector<T>(storage_.begin(), storage_.end());
}

template <class T>
void ConstantBuffer<T>::copy_from_host(std::span<const T> src) {
  G80_CHECK(src.size() <= storage_.size());
  std::memcpy(storage_.data(), src.data(), src.size_bytes());
  if (dev_) dev_->ledger().record_h2d(src.size_bytes());
}

template <class T>
void Texture1D<T>::copy_from_host(std::span<const T> src) {
  G80_CHECK(src.size() <= storage_.size());
  std::memcpy(storage_.data(), src.data(), src.size_bytes());
  if (dev_) dev_->ledger().record_h2d(src.size_bytes());
}

}  // namespace g80
