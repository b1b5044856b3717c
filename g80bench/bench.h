// Shared pieces of the g80sim benchmark: run settings, the metric/outcome
// record every workload fills, the span tracer of the traced run, and the
// timing helpers.  See NOTES.md for what each workload measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace g80::bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Shortest-exact decimal form of `v` (17 significant digits).
std::string full(double v);

// Median of `v` (copied: callers keep their sample order).  0 when empty.
double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].  0 when empty.
double percentile(std::vector<double> v, double p);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload (or the traced layer panel) reports.
struct Outcome {
  // The metrics of this run that BENCHMARK.json lists, in print order.
  std::vector<Metric> metrics;
  // Workload-specific end-to-end figures under their own names
  // (launch_p50_s, serve_hit_p50_ms, ...): printed and written to the
  // result file next to the listed ones.
  std::vector<Metric> named;
  // Wall seconds of every measured op, in run order (result file only).
  std::vector<double> op_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_named(std::string name, double value, std::string unit) {
    named.push_back({std::move(name), value, std::move(unit)});
  }
  // One checked operation; a false `ok` counts as a failure.
  void check(bool ok, const std::string& what);
  // Folds another outcome's counts and failures into this one.
  void absorb(const Outcome& o);
};

// How long and how often a workload runs.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;  // measuring window; the op in flight finishes
  int setup_reps = 3;   // set-ups timed at least; the median is setup_s
  double setup_budget_s = 1.0;  // ... and more, up to 201, within this time
  int min_ops = 3;      // ops run even when the window has passed
  std::string socket;   // g80served socket path (serve workloads)
};

// In-memory span recorder for the traced run.  A span is opened at a call
// into one of the library's public functions and closed when it returns;
// its parent is the innermost span open on the same thread.  Spans are kept
// in memory and written once, as chrome-trace JSON, at the end of the run.
class Tracer {
 public:
  struct SpanRec {
    std::string layer, name;
    double start = 0, end = 0;  // seconds since the tracer's epoch
    int parent = -1;            // index into spans(), -1 for a root
    int tid = 0;                // small per-thread number
  };

  // RAII handle; a null tracer makes it a no-op, so workload code is the
  // same in traced and untraced runs.
  class Scope {
   public:
    Scope(Tracer* t, std::string_view layer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  Tracer();

  std::vector<SpanRec> spans() const;
  // Per-layer self time: each span's duration minus the part its children
  // cover, summed by layer.  Sorted by layer name.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  // Chrome trace-event document of every span (one track per thread).
  std::string chrome_trace_json() const;

 private:
  int open(std::string_view layer, std::string_view name);
  void close(int idx);

  double epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

// The four workloads and the traced layer panel.  Each fills `out` with its
// metrics and checks; `tr` is null in untraced runs.
void run_matmul512(const RunConfig& rc, Tracer* tr, Outcome& out);
void run_checked(const RunConfig& rc, Tracer* tr, Outcome& out);
void run_suite13(const RunConfig& rc, Tracer* tr, Outcome& out);
void run_serve_mix(const RunConfig& rc, Tracer* tr, Outcome& out);
void run_layer_panel(const RunConfig& rc, Tracer* tr, Outcome& out);

// Times `setup` repeatedly (`teardown`, untimed, runs before each repeat)
// per rc.setup_reps / rc.setup_budget_s and returns the median seconds.
// The last set-up stays in place for the workload.
double setup_seconds(const RunConfig& rc, const std::function<void()>& teardown,
                     const std::function<void()>& setup);

// Runs `op` (which returns its own wall seconds) until `rc.seconds` have
// passed and at least `rc.min_ops` ran; returns every op's seconds and sets
// `wall` to the whole window.
std::vector<double> run_window(const RunConfig& rc,
                               const std::function<double()>& op,
                               double& wall);

// The width a workload's WorkerPool uses: min(4, nproc).
int pool_width();

}  // namespace g80::bench
