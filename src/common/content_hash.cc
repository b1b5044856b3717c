#include "common/content_hash.h"

#include <cinttypes>
#include <cstdio>

namespace g80 {

void ContentHasher::str(std::string_view s) {
  for (const char c : s) byte(static_cast<unsigned char>(c));
  separator();
}

void ContentHasher::i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  str(buf);
}

void ContentHasher::u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  str(buf);
}

void ContentHasher::f64(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  str(buf);
}

void ContentHasher::raw(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) byte(p[i]);
  separator();
}

std::uint64_t launch_config_hash(const LaunchConfig& c) {
  ContentHasher h;
  h.u64(c.grid_x);
  h.u64(c.grid_y);
  h.u64(c.block_x);
  h.u64(c.block_y);
  h.u64(c.block_z);
  h.i64(c.regs_per_thread);
  h.i64(c.sample_blocks);
  h.boolean(c.functional);
  return h.digest();
}

}  // namespace g80
