// Device/spec/geometry tests: family variants, Dim3 arithmetic, allocation
// bookkeeping, zeroed and lazily backed buffer storage, and CPU-baseline
// calibration.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "core/cpu_calibration.h"
#include "cudalite/device.h"
#include "cudalite/dim3.h"

namespace g80 {
namespace {

TEST(Dim3, LinearizationRoundTrips) {
  const Dim3 dim(7, 5, 3);
  for (unsigned z = 0; z < dim.z; ++z) {
    for (unsigned y = 0; y < dim.y; ++y) {
      for (unsigned x = 0; x < dim.x; ++x) {
        const Dim3 idx(x, y, z);
        const unsigned lin = linear_index(idx, dim);
        EXPECT_EQ(delinearize(lin, dim), idx);
      }
    }
  }
  EXPECT_EQ(dim.count(), 105u);
}

TEST(Dim3, XIsFastestLikeCuda) {
  const Dim3 dim(16, 16);
  // Thread (1, 0) is linear 1; thread (0, 1) is linear 16 — warps therefore
  // span consecutive x first, which is what makes row-major accesses
  // coalesce.  (Dim3's defaults are 1, sized for extents; index literals
  // must zero the unused coordinates explicitly.)
  EXPECT_EQ(linear_index(Dim3(1, 0, 0), dim), 1u);
  EXPECT_EQ(linear_index(Dim3(0, 1, 0), dim), 16u);
}

TEST(VecTypes, AlignmentMatchesAccessSizes) {
  static_assert(sizeof(Float2) == 8 && alignof(Float2) == 8);
  static_assert(sizeof(Float4) == 16 && alignof(Float4) == 16);
  SUCCEED();
}

TEST(DeviceSpec, FamilyVariantsDiffer) {
  const auto gtx = DeviceSpec::geforce_8800_gtx();
  const auto ultra = DeviceSpec::geforce_8800_ultra();
  const auto gts = DeviceSpec::geforce_8800_gts();
  EXPECT_EQ(gtx.num_sms, 16);
  EXPECT_EQ(gts.num_sms, 12);
  EXPECT_GT(ultra.peak_mad_gflops(), gtx.peak_mad_gflops());
  EXPECT_LT(gts.peak_mad_gflops(), gtx.peak_mad_gflops());
  EXPECT_GT(ultra.dram_bandwidth_gbs, gtx.dram_bandwidth_gbs);
  // Resource structure is shared across the family (same architecture).
  EXPECT_EQ(ultra.registers_per_sm, gtx.registers_per_sm);
  EXPECT_EQ(gts.max_threads_per_sm, gtx.max_threads_per_sm);
}

TEST(Device, AllocationsAreAlignedAndDisjoint) {
  Device dev;
  auto a = dev.alloc<float>(100);
  auto b = dev.alloc<float>(100);
  EXPECT_EQ(a.device_addr() % 256, 0u);
  EXPECT_EQ(b.device_addr() % 256, 0u);
  EXPECT_GE(b.device_addr(), a.device_addr() + 400);
  EXPECT_GE(dev.bytes_allocated(), 800u);
}

TEST(Device, GlobalMemoryExhaustionThrows) {
  DeviceSpec tiny = DeviceSpec::geforce_8800_gtx();
  tiny.global_mem_bytes = 1 << 20;
  Device dev(tiny);
  (void)dev.alloc<float>(200'000);  // 800 KB fits
  EXPECT_THROW(dev.alloc<float>(200'000), Error);  // next 800 KB does not
  EXPECT_EQ(dev.get_last_error(), Status::kMemoryAllocation);
  // A failed allocation consumes no address space: a fitting one succeeds.
  EXPECT_NO_THROW(dev.alloc<float>(10'000));
}

// An element type whose construction shows that host storage was built.
// Still trivially copyable, so a DeviceBuffer accepts it.
struct NeverBuilt {
  NeverBuilt() { throw std::logic_error("host storage built"); }
  float v;
};
static_assert(std::is_trivially_copyable_v<NeverBuilt>);

TEST(Device, AllocationPastThe32BitAddressSpaceRaises) {
  DeviceSpec big = DeviceSpec::geforce_8800_gtx();
  big.global_mem_bytes = 8ull << 30;
  Device dev(big);
  // 4 GiB fits the 8 GiB capacity, but from the 1 MiB base it would end
  // past 2^32, where the trace arena's 32-bit addresses stop.
  const std::size_t n = (4ull << 30) / sizeof(NeverBuilt);
  try {
    (void)dev.alloc<NeverBuilt>(n);
    ADD_FAILURE() << "allocation past 2^32 succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kMemoryAllocation);
  }
  EXPECT_THROW(dev.alloc_texture<NeverBuilt>(n), StatusError);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  // Sticky: a later successful allocation leaves the status in place until
  // it is read.
  EXPECT_NO_THROW(dev.alloc<float>(16));
  EXPECT_EQ(dev.peek_last_error(), Status::kMemoryAllocation);
  EXPECT_EQ(dev.get_last_error(), Status::kMemoryAllocation);
  EXPECT_EQ(dev.get_last_error(), Status::kSuccess);
}

// A constant allocation that global space refuses uses up no constant
// space either.
TEST(Device, RefusedConstantAllocationLeavesConstantSpace) {
  DeviceSpec small = DeviceSpec::geforce_8800_gtx();
  small.global_mem_bytes = 64 << 10;
  Device dev(small);
  (void)dev.alloc_constant<float>(10);   // 40 B of constant space
  (void)dev.alloc<float>(15 << 10);      // 60 KiB: under 4 KiB stays free
  const auto constant_alloc_status = [&](std::size_t bytes) {
    try {
      (void)dev.alloc_constant<float>(bytes / sizeof(float));
    } catch (const StatusError& e) {
      return e.status();
    }
    return Status::kSuccess;
  };
  EXPECT_EQ(constant_alloc_status(32 << 10), Status::kMemoryAllocation);
  // Only 40 B of the 64 KiB constant space is in use, so global space, not
  // the constant budget, refuses the same request again.
  EXPECT_EQ(constant_alloc_status(32 << 10), Status::kMemoryAllocation);
  EXPECT_EQ(constant_alloc_status(1 << 10), Status::kSuccess);
}

TEST(Device, ZeroElementAllocationRejected) {
  Device dev;
  EXPECT_THROW(dev.alloc<float>(0), StatusError);
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidValue);
  EXPECT_THROW(dev.alloc_constant<float>(0), StatusError);
  EXPECT_THROW(dev.alloc_texture<float>(0), StatusError);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
}

TEST(Device, AllocationSizeOverflowRejected) {
  Device dev;
  // n * sizeof(T) wraps 64 bits — must be rejected before any address
  // arithmetic, not after it silently wraps past the capacity check.
  const auto huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(dev.alloc<double>(huge), StatusError);
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidValue);
  EXPECT_EQ(dev.bytes_allocated(), 0u);
}

TEST(Device, BufferFillAndCopy) {
  Device dev;
  auto b = dev.alloc<int>(64);
  b.fill(7);
  const auto host = b.copy_to_host();
  for (int v : host) EXPECT_EQ(v, 7);
}

// An element type whose default is not all zero bits: its buffers must be
// constructed element by element, not left as the allocator's zeros.
struct Ones {
  float v = 1.0f;
};
static_assert(std::is_trivially_copyable_v<Ones>);
static_assert(!std::is_trivially_default_constructible_v<Ones>);

float value_of(float f) { return f; }
float value_of(const Ones& o) { return o.v; }

// Twenty rounds of: build a buffer, check every element reads `fresh`,
// scribble over all of it, drop it.  Below glibc's mmap threshold the next
// round may get the same heap chunk back, so this catches storage that
// reaches a new buffer uncleared.
template <class Buffer>
void expect_fresh_every_round(std::size_t bytes, float fresh) {
  using T = std::remove_cvref_t<decltype(*std::declval<Buffer&>().raw())>;
  const std::size_t n = bytes / sizeof(T);
  std::vector<T> scribble(n);
  std::memset(static_cast<void*>(scribble.data()), 0xA5, n * sizeof(T));
  Device dev;
  for (int round = 0; round < 20; ++round) {
    // Built directly: constant space stops at 64 KiB, and the contract is
    // the storage's, whatever address the buffer has.
    Buffer b(&dev, 0, n);
    ASSERT_EQ(b.size(), n);
    const std::size_t stale = std::count_if(
        b.raw(), b.raw() + n, [&](const T& e) { return value_of(e) != fresh; });
    EXPECT_EQ(stale, 0u) << bytes << " B, round " << round;
    b.copy_from_host(scribble);
  }
}

template <class T>
void expect_fresh_buffers(float fresh) {
  for (const std::size_t bytes : {std::size_t{1} << 10, std::size_t{8} << 20}) {
    expect_fresh_every_round<DeviceBuffer<T>>(bytes, fresh);
    expect_fresh_every_round<ConstantBuffer<T>>(bytes, fresh);
    expect_fresh_every_round<Texture1D<T>>(bytes, fresh);
  }
}

TEST(Device, NewBuffersReadZeroAfterReuse) { expect_fresh_buffers<float>(0.0f); }

TEST(Device, NewBuffersConstructNonZeroDefaults) {
  expect_fresh_buffers<Ones>(1.0f);
}

// ThreadSanitizer's calloc writes every byte it hands out, so its builds
// cannot keep unwritten pages lazy; every other build keeps the contract.
#if defined(__SANITIZE_THREAD__)
#define G80_CALLOC_WRITES_PAGES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define G80_CALLOC_WRITES_PAGES 1
#endif
#endif

#if !defined(G80_CALLOC_WRITES_PAGES)
// Resident host pages of the page-aligned range covering [p, p + bytes).
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto end =
      (reinterpret_cast<std::uintptr_t>(p) + bytes + page - 1) / page * page;
  std::vector<unsigned char> in_core((end - begin) / page);
  if (mincore(reinterpret_cast<void*>(begin), end - begin, in_core.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  return std::count_if(in_core.begin(), in_core.end(),
                       [](unsigned char c) { return (c & 1) != 0; });
}

TEST(Device, UnwrittenDeviceMemoryCostsNoHostPages) {
  Device dev;
  auto buf = dev.alloc<float>((64u << 20) / sizeof(float));
  // At most the allocator's header page, which shares the first page.
  EXPECT_LE(resident_pages(buf.raw(), buf.bytes()), 1u);
  const std::vector<float> mib((1u << 20) / sizeof(float), 1.0f);
  buf.copy_from_host(mib);
  const std::size_t mib_pages =
      (1u << 20) / static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t pages = resident_pages(buf.raw(), buf.bytes());
  EXPECT_GE(pages, mib_pages);
  EXPECT_LE(pages, mib_pages + 2);
}
#endif

TEST(CpuCalibration, PositiveAndCached) {
  const auto& cal = cpu_calibration();
  EXPECT_GT(cal.host_gflops, 0.1);
  EXPECT_GT(cal.host_to_opteron(), 0.0);
  // Cached: a second call returns the identical measurement.
  EXPECT_DOUBLE_EQ(cpu_calibration().host_gflops, cal.host_gflops);
  // Scaling is linear.
  EXPECT_DOUBLE_EQ(to_opteron_seconds(2.0), 2.0 * to_opteron_seconds(1.0));
}


TEST(TransferLedger, LifetimeTotalsSurviveReset) {
  TransferLedger ledger;
  ledger.record_h2d(1000);
  ledger.record_d2h(500);
  EXPECT_EQ(ledger.h2d_bytes(), 1000u);
  EXPECT_EQ(ledger.lifetime_total_bytes(), 1500u);
  // Epoch reset (phase scoping) zeroes the epoch view only.
  ledger.reset();
  EXPECT_EQ(ledger.h2d_bytes(), 0u);
  EXPECT_EQ(ledger.d2h_bytes(), 0u);
  EXPECT_EQ(ledger.transfer_count(), 0u);
  EXPECT_EQ(ledger.lifetime_h2d_bytes(), 1000u);
  EXPECT_EQ(ledger.lifetime_d2h_bytes(), 500u);
  EXPECT_EQ(ledger.lifetime_transfer_count(), 2u);
  // Post-reset traffic accumulates into both views again.
  ledger.record_h2d(100);
  EXPECT_EQ(ledger.h2d_bytes(), 100u);
  EXPECT_EQ(ledger.lifetime_h2d_bytes(), 1100u);
}

TEST(TransferLedger, DeviceResetPreservesLifetimeAccounting) {
  // Regression: Device::reset() used to wipe the ledger entirely, so a
  // g80serve session whose slot device was reset after a faulty job lost
  // the bytes its *successful* jobs had already moved.  Cumulative totals
  // must survive the reset; only the epoch view starts over.
  Device dev;
  {
    auto b = dev.alloc<float>(256);
    std::vector<float> host(256, 1.0f);
    b.copy_from_host(host);
    (void)b.copy_to_host();
  }
  const std::uint64_t bytes = 256 * sizeof(float);
  EXPECT_EQ(dev.ledger().h2d_bytes(), bytes);
  EXPECT_EQ(dev.ledger().lifetime_total_bytes(), 2 * bytes);

  dev.reset();
  EXPECT_EQ(dev.ledger().h2d_bytes(), 0u);
  EXPECT_EQ(dev.ledger().total_bytes(), 0u);
  EXPECT_EQ(dev.ledger().lifetime_h2d_bytes(), bytes);
  EXPECT_EQ(dev.ledger().lifetime_d2h_bytes(), bytes);
  EXPECT_EQ(dev.ledger().lifetime_transfer_count(), 2u);

  // And the lifetime view keeps integrating across generations.
  auto b2 = dev.alloc<float>(64);
  std::vector<float> host2(64, 2.0f);
  b2.copy_from_host(host2);
  EXPECT_EQ(dev.ledger().lifetime_h2d_bytes(), bytes + 64 * sizeof(float));
  EXPECT_GT(dev.ledger().lifetime_seconds(dev.spec()), 0.0);
}

}  // namespace
}  // namespace g80
