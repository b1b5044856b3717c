#include "mem/texture_cache.h"

#include "common/error.h"

namespace g80 {

TextureCache::TextureCache(const DeviceSpec& spec, int ways)
    : line_bytes_(spec.texture_cache_line), ways_(ways) {
  G80_CHECK(ways_ > 0 && line_bytes_ > 0);
  const std::size_t total_lines = spec.texture_cache_bytes / line_bytes_;
  G80_CHECK(total_lines % ways_ == 0);
  num_sets_ = total_lines / ways_;
  lines_.assign(num_sets_ * ways_, Line{});
}

bool TextureCache::access(std::uint64_t addr) {
  const std::uint64_t line_addr = addr / line_bytes_;
  const std::size_t set = line_addr % num_sets_;
  Line* base = &lines_[set * ways_];
  ++clock_;

  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      base[w].lru = clock_;
      ++hits_;
      return true;
    }
  }
  // Miss: evict LRU way.
  int victim = 0;
  for (int w = 1; w < ways_; ++w) {
    if (!base[w].valid) { victim = w; break; }
    if (base[w].lru < base[victim].lru) victim = w;
  }
  base[victim] = Line{line_addr, clock_, true};
  ++misses_;
  return false;
}

TextureCache::WarpResult TextureCache::access_warp(
    const SoaWarpAccess& row) {
  WarpResult r;
  for (int k = 0; k < row.lanes; ++k) {
    if ((row.mask >> k & 1u) == 0) continue;
    if (access(std::uint64_t{row.addrs[k]})) ++r.hits;
    else ++r.misses;
  }
  return r;
}

double TextureCache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void TextureCache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace g80
