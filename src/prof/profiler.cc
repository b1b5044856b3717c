#include "prof/profiler.h"

namespace g80::prof {

void Profiler::record_launch(std::string_view kernel_name,
                             const DeviceSpec& spec, const LaunchStats& stats,
                             std::uint64_t /*stream*/) {
  if (kernel_name.empty()) kernel_name = "kernel";
  const KernelCounters c = derive_counters(spec, stats);
  std::lock_guard<std::mutex> lk(mu_);
  KernelProfile* p = nullptr;
  for (auto& k : kernels_) {
    if (k.name == kernel_name) {
      p = &k;
      break;
    }
  }
  if (p == nullptr) {
    kernels_.emplace_back();
    p = &kernels_.back();
    p->name = std::string(kernel_name);
  }
  ++p->launches;
  p->counters += c;
  p->modeled_seconds += stats.timing.seconds;
  p->gflops = stats.timing.gflops;
  p->dram_gbs = stats.timing.dram_gbs;
  p->bottleneck = stats.timing.bottleneck;
  p->regs_per_thread = stats.regs_per_thread;
  p->smem_per_block = stats.smem_per_block;
  p->max_simultaneous_threads = stats.occupancy.max_simultaneous_threads(spec);
  p->grid = stats.grid;
  p->block = stats.block;
  p->retries += static_cast<std::uint64_t>(stats.resilience.retries());
  if (stats.resilience.timed_out) ++p->timeouts;
  if (stats.resilience.recovered) ++p->recovered;
  if (stats.resilience.fallback_level > 0) ++p->fallback_launches;
}

void Profiler::record_transfer(bool h2d, std::uint64_t bytes,
                               double modeled_seconds,
                               std::uint64_t /*stream*/) {
  std::lock_guard<std::mutex> lk(mu_);
  if (h2d) {
    ++transfers_.h2d_count;
    transfers_.h2d_bytes += bytes;
  } else {
    ++transfers_.d2h_count;
    transfers_.d2h_bytes += bytes;
  }
  transfers_.modeled_seconds += modeled_seconds;
}

std::vector<KernelProfile> Profiler::kernels() const {
  std::lock_guard<std::mutex> lk(mu_);
  return kernels_;
}

TransferTotals Profiler::transfers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return transfers_;
}

std::uint64_t Profiler::total_launches() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& k : kernels_) n += k.launches;
  return n;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  kernels_.clear();
  transfers_ = TransferTotals{};
}

}  // namespace g80::prof
