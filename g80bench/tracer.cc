// Span tracer, outcome bookkeeping and timing helpers (bench.h).
#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/json.h"
#include "prof/chrome_trace.h"

namespace g80::bench {

std::string full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::absorb(const Outcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& f : o.failures)
    if (failures.size() < 8) failures.push_back(f);
}

double setup_seconds(const RunConfig& rc, const std::function<void()>& teardown,
                     const std::function<void()>& setup) {
  constexpr int kMaxReps = 201;
  std::vector<double> t;
  double spent = 0;
  while (static_cast<int>(t.size()) < kMaxReps &&
         (static_cast<int>(t.size()) < rc.setup_reps ||
          spent < rc.setup_budget_s)) {
    teardown();
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
    spent += t.back();
  }
  return median(t);
}

std::vector<double> run_window(const RunConfig& rc,
                               const std::function<double()>& op,
                               double& wall) {
  std::vector<double> times;
  const double t0 = now_s();
  while (static_cast<int>(times.size()) < rc.min_ops ||
         now_s() - t0 < rc.seconds) {
    times.push_back(op());
  }
  wall = now_s() - t0;
  return times;
}

int pool_width() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

// ---- Tracer ------------------------------------------------------------

namespace {

// Innermost open span per thread, for parent links.
thread_local std::vector<int> t_open;

int thread_number() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, fresh] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

}  // namespace

Tracer::Tracer() : epoch_(now_s()) {}

Tracer::Scope::Scope(Tracer* t, std::string_view layer, std::string_view name)
    : t_(t) {
  if (t_ != nullptr) idx_ = t_->open(layer, name);
}

Tracer::Scope::~Scope() {
  if (t_ != nullptr) t_->close(idx_);
}

int Tracer::open(std::string_view layer, std::string_view name) {
  const int parent = t_open.empty() ? -1 : t_open.back();
  const int tid = thread_number();
  int idx = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idx = static_cast<int>(spans_.size());
    spans_.push_back(SpanRec{std::string(layer), std::string(name),
                             now_s() - epoch_, 0, parent, tid});
  }
  t_open.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  const double end = now_s() - epoch_;
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(idx)].end = end;
}

std::vector<Tracer::SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  const auto all = spans();
  // Children of one parent run on the parent's thread, nested inside it,
  // so their durations never overlap and simply subtract.
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    self[i] = all[i].end - all[i].start;
  for (const auto& s : all)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i)
    by_layer[all[i].layer] += self[i];
  return {by_layer.begin(), by_layer.end()};
}

std::string Tracer::chrome_trace_json() const {
  const auto all = spans();
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  prof::chrome_emit_process_name(w, 1, "g80bench traced run");
  int threads = 0;
  for (const auto& s : all) threads = std::max(threads, s.tid + 1);
  for (int t = 0; t < threads; ++t)
    prof::chrome_emit_thread_name(w, 1, t, "thread " + std::to_string(t));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    prof::chrome_emit_slice(w, 1, s.tid, s.name, s.start, s.end - s.start,
                            [&](JsonWriter& a) {
                              a.kv("layer", s.layer);
                              a.kv("span", static_cast<std::uint64_t>(i));
                              a.kv("parent", s.parent);
                            });
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace g80::bench
