#include "scope/session.h"

#include <utility>

#include "cudalite/launch.h"

namespace g80::scope {

std::uint64_t Session::record_launch(std::string_view kernel_name,
                                     const DeviceSpec& spec,
                                     const LaunchStats& stats,
                                     std::uint64_t stream) {
  LaunchRecord r;
  r.kernel_name = kernel_name.empty() ? "kernel" : kernel_name;
  r.stream = stream;
  r.scope = derive_scope(spec, stats.occupancy, stats.grid.count(),
                         stats.trace, stats.timing, cfg_);
  r.resilience = stats.resilience;
  std::lock_guard<std::mutex> lock(mu_);
  r.id = next_id_++;
  launches_.push_back(std::move(r));
  return launches_.back().id;
}

std::vector<LaunchRecord> Session::launches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return launches_;
}

std::uint64_t Session::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return launches_.size();
}

void Session::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  launches_.clear();
}

}  // namespace g80::scope
