#include "cudalite/launch.h"

#include <algorithm>
#include <memory>

namespace g80 {

namespace {
// Thread-local so each g80rt stream thread (and the host thread) carries its
// own default; a pool installed on one thread never leaks into another.
thread_local WorkerPool* t_ambient_pool = nullptr;
}  // namespace

WorkerPool* ambient_launch_pool() { return t_ambient_pool; }
void set_ambient_launch_pool(WorkerPool* pool) { t_ambient_pool = pool; }

}  // namespace g80

namespace g80::detail {

BlockRunner& thread_block_runner(std::size_t smem_capacity) {
  // A handful of entries at most: one per distinct SM shared-memory size
  // this thread has launched for.
  thread_local std::vector<std::unique_ptr<BlockRunner>> runners;
  for (const auto& r : runners)
    if (r->shared().capacity() == smem_capacity) return *r;
  // The per-thread tables grow to each block's size on first use.
  runners.push_back(std::make_unique<BlockRunner>(0, smem_capacity));
  return *runners.back();
}

std::vector<std::uint64_t> pick_sample_blocks(std::uint64_t total, int n) {
  std::vector<std::uint64_t> out;
  if (total == 0 || n <= 0) return out;
  const auto want = std::min<std::uint64_t>(static_cast<std::uint64_t>(n), total);
  if (want == total) {
    out.resize(total);
    for (std::uint64_t i = 0; i < total; ++i) out[i] = i;
    return out;
  }
  for (std::uint64_t i = 0; i < want; ++i) {
    // Spread including both endpoints.
    const std::uint64_t b =
        want == 1 ? 0 : (i * (total - 1)) / (want - 1);
    if (out.empty() || out.back() != b) out.push_back(b);
  }
  return out;
}

}  // namespace g80::detail
