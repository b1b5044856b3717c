#include "sanitizer/sanitizer.h"

#include <algorithm>
#include <sstream>

namespace g80 {

bool SanitizerReport::has(Status s) const {
  return std::any_of(findings.begin(), findings.end(),
                     [s](const Finding& f) { return f.status == s; });
}

std::string SanitizerReport::summary() const {
  std::ostringstream os;
  os << "g80check: " << findings.size() << " finding(s) across "
     << blocks_checked << " block(s)";
  if (blocks_checked < blocks_requested)
    os << " of " << blocks_requested << " requested (pass skipped)";
  os << "\n";
  for (const Finding& f : findings)
    os << "  [" << status_name(f.status) << "] block " << f.block << ": "
       << f.message << "\n";
  return os.str();
}

Sanitizer::Sanitizer(const SanitizerOptions& opt, std::size_t smem_capacity)
    : opt_(opt), shadow_(smem_capacity) {}

void Sanitizer::begin_block(std::uint64_t linear_block) {
  block_ = linear_block;
  epoch_ = 0;
  shadow_.reset();
  ++report_.blocks_checked;
}

void Sanitizer::add_finding(Status s, const std::string& message) {
  if (report_.findings.size() >= opt_.max_findings) return;
  // The same static bug fires in every block of the grid; keep the first.
  if (!seen_.insert(message).second) return;
  report_.findings.push_back({s, block_, message});
}

namespace {

std::string sync_point_str(const SyncPoint& at) {
  return access_site_str(AccessSite{at.site, at.file, at.line});
}

}  // namespace

void Sanitizer::on_barrier_release(const BarrierSnapshot& snap) {
  ++report_.barriers_checked;

  // (1) Threads exited the kernel while others wait at a barrier: the
  // "__syncthreads reached by a strict subset of the block" case CUDA
  // leaves undefined (the G80 releases when active threads arrive; other
  // hardware deadlocks).
  if (!snap.exited.empty() && !snap.waiting.empty()) {
    std::ostringstream os;
    os << "thread " << snap.exited.front();
    if (snap.exited.size() > 1) os << " (and " << snap.exited.size() - 1 << " more)";
    os << " exited the kernel while thread " << snap.waiting.front().tid;
    if (snap.waiting.size() > 1)
      os << " (and " << snap.waiting.size() - 1 << " more)";
    os << " waits at __syncthreads() at "
       << sync_point_str(snap.waiting.front().at) << " (barrier epoch "
       << snap.epoch << ")";
    add_finding(Status::kBarrierDivergence, os.str());
  }

  // (2) Threads wait at *different* barriers — both sides of a divergent
  // branch contain a __syncthreads().  Site 0 means the barrier came from a
  // raw BlockRunner test without source info; skip those.
  for (const auto& w : snap.waiting) {
    const auto& first = snap.waiting.front();
    if (w.at.site != 0 && first.at.site != 0 && w.at.site != first.at.site) {
      std::ostringstream os;
      os << "threads wait at different barriers: thread " << first.tid
         << " at __syncthreads() at " << sync_point_str(first.at)
         << " but thread " << w.tid << " at __syncthreads() at "
         << sync_point_str(w.at) << " (barrier epoch " << snap.epoch << ")";
      add_finding(Status::kBarrierDivergence, os.str());
      break;
    }
  }

  epoch_ = snap.epoch + 1;
}

void Sanitizer::on_shared_read(int tid, std::uint64_t offset,
                               std::uint32_t size, const AccessSite& site) {
  ++report_.shared_reads;
  if (auto race = shadow_.on_read(tid, epoch_, offset, size, site))
    add_finding(Status::kSharedMemoryRace, *race);
}

void Sanitizer::on_shared_write(int tid, std::uint64_t offset,
                                std::uint32_t size, const AccessSite& site) {
  ++report_.shared_writes;
  if (auto race = shadow_.on_write(tid, epoch_, offset, size, site))
    add_finding(Status::kSharedMemoryRace, *race);
}

bool Sanitizer::fault_applies(int tid, int index, int want_tid,
                              int want_index) const {
  if (want_tid < 0 || tid != want_tid || index != want_index) return false;
  return opt_.fault.block < 0 ||
         block_ == static_cast<std::uint64_t>(opt_.fault.block);
}

bool Sanitizer::should_skip_barrier(int tid, int sync_index) const {
  return fault_applies(tid, sync_index, opt_.fault.skip_barrier_tid,
                       opt_.fault.skip_barrier_index);
}

std::size_t Sanitizer::fault_shared_store_index(int tid, int store_index,
                                                std::size_t i,
                                                std::size_t n) const {
  if (!fault_applies(tid, store_index, opt_.fault.corrupt_store_tid,
                     opt_.fault.corrupt_store_index))
    return i;
  return n == 0 ? i : (i + opt_.fault.corrupt_offset_words) % n;
}

std::size_t Sanitizer::fault_global_store_index(int tid, int store_index,
                                                std::size_t i,
                                                std::size_t n) const {
  if (!fault_applies(tid, store_index, opt_.fault.corrupt_global_tid,
                     opt_.fault.corrupt_global_index))
    return i;
  return n;  // one past the end: the bounds check raises kInvalidAddress
}

FaultClass classify_fault(Status s) {
  switch (s) {
    // Host-environment effects: re-executing (after backoff, possibly in a
    // degraded mode) can legitimately produce a different outcome.
    case Status::kTimeout:
    case Status::kLaunchFailure:
    case Status::kNotReady:
      return FaultClass::kTransient;
    // Everything else is a deterministic programming-model or configuration
    // violation — the same launch fails the same way every time.
    default:
      return FaultClass::kPermanent;
  }
}

}  // namespace g80
