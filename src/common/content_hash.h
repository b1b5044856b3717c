// Stable content hashing for cache keys and artifact provenance.
//
// The g80serve result cache memoizes simulation results on disk, keyed by
// (kernel id, launch config, device spec, model version).  Those keys must
// be *content* hashes: independent of struct layout, padding, field order in
// memory, and host endianness — a cache written on one build must hit on
// another.  ContentHasher therefore never hashes raw struct bytes; every
// field is rendered to a canonical text form (fixed printf formats, a
// separator byte between fields so adjacent fields cannot alias) and fed
// through FNV-1a.  device_spec_hash (hw/device_spec.cc) and
// launch_config_hash (below) are both built on it, and
// tests/content_hash_test.cc pins golden values so an accidental change to
// the canonicalization — which would silently orphan every on-disk cache
// entry and every checked-in bench baseline — fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace g80 {

// FNV-1a over canonicalized fields.  Feed fields in a fixed documented
// order; digest() may be read at any point (hashing more fields afterwards
// is fine).
class ContentHasher {
 public:
  // One field in canonical text form.  Each call appends a 0xff separator
  // after the field's bytes, so str("ab"); str("c") never collides with
  // str("a"); str("bc").
  void str(std::string_view s);
  void i64(std::int64_t v);   // rendered "%" PRId64
  void u64(std::uint64_t v);  // rendered "%" PRIu64
  // Doubles render through "%.17g": every distinct double has a distinct
  // rendering, and equal values hash equally on every platform.
  void f64(double v);
  void boolean(bool v) { u64(v ? 1 : 0); }

  // Raw bytes (plus separator).  NOT layout-canonical — use only for data
  // that is already a defined byte sequence (e.g. a float buffer being
  // checksummed within one process), never for structs.
  void raw(const void* data, std::size_t bytes);

  std::uint64_t digest() const { return h_; }

  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }
  void separator() { byte(0xff); }

  std::uint64_t h_ = kOffsetBasis;
};

// The serializable subset of a kernel launch configuration — everything
// that changes what a deterministic simulation returns.  This is the wire
// form g80serve jobs carry and the unit the result cache keys on; it is
// deliberately independent of cudalite's LaunchOptions (which holds
// process-local pointers: pools, profiler sinks, fault hooks).
struct LaunchConfig {
  std::uint32_t grid_x = 1, grid_y = 1;              // G80 grids are 2-D
  std::uint32_t block_x = 1, block_y = 1, block_z = 1;
  int regs_per_thread = 10;
  int sample_blocks = 4;   // trace-pass sample size
  bool functional = true;  // run the full functional pass

  std::uint64_t threads_per_block() const {
    return static_cast<std::uint64_t>(block_x) * block_y * block_z;
  }
  std::uint64_t total_blocks() const {
    return static_cast<std::uint64_t>(grid_x) * grid_y;
  }
};

// Stable content hash of a LaunchConfig (field order fixed by this function,
// not by the struct's memory layout).
std::uint64_t launch_config_hash(const LaunchConfig& c);

}  // namespace g80
