// g80rt — streams, events, and the asynchronous host runtime for cudalite.
//
// A cudalite `launch` is synchronous, like CUDA's very first releases; the
// paper's §5 results repeatedly blame launch overhead and host<->device
// transfer time for eroding kernel speedups.  CUDA's answer was streams:
// FIFO queues of device work that run concurrently with the host and with
// each other.  g80rt reproduces that model:
//
//   - `stream_create` returns a FIFO queue backed by a dedicated host
//     thread; ops on one stream execute strictly in order, ops on different
//     streams execute concurrently.
//   - `memcpy_h2d_async` / `memcpy_d2h_async` / `launch_async` /
//     `host_func` enqueue work and return immediately.
//   - `event_record` / `event_elapsed_seconds` expose modeled timestamps;
//     `stream_synchronize` / `device_synchronize` join the host with the
//     device, rethrowing any asynchronous failure (whose Status is already
//     sticky on the Device, CUDA-style).
//
// Two clocks run side by side.  Wall-clock: ops really execute on stream
// threads, and kernels fan their blocks across the runtime's WorkerPool.
// Modeled clock: every op is committed to a `Timeline` in issue order with
// its modeled duration (`transfer_seconds` for copies, `total_seconds` for
// kernels), reproducing the G80's one-compute-engine/one-copy-engine
// overlap.  Commit order is the enqueue order, not the completion order, so
// the modeled timeline and every event timestamp are deterministic no
// matter how the OS schedules the stream threads.
//
// Runtime misuse — ops on destroyed streams, events shared across runtimes,
// synchronizing from inside a stream callback — raises through the sticky
// `g80::Status` model (docs/runtime.md has the full table).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "prof/profiler.h"
#include "scope/session.h"
#include "timing/timeline.h"

namespace g80::rt {

class Runtime;

// Value handles, CUDA-style: cheap to copy, validated on every use.  The
// owner pointer lets misuse across runtimes (devices) be diagnosed as
// kInvalidDevice rather than an accidental id collision.
struct Stream {
  std::uint64_t id = 0;
  Runtime* owner = nullptr;
};

struct Event {
  std::uint64_t id = 0;
  Runtime* owner = nullptr;
};

struct RuntimeOptions {
  // Block-parallel width for kernels launched through the runtime (and for
  // anything else using this runtime's pool).  0 = hardware concurrency,
  // clamped to [1, 16].
  int workers = 0;
  // g80prof: when set, every launch and async copy on every stream of this
  // runtime records into the profiler (kernels keyed by
  // LaunchOptions::kernel_name, transfers into the transfer totals),
  // and kernel timeline spans carry per-wave block spans for the Chrome
  // trace.  Null = no profiling, zero additional work per op.
  prof::Profiler* profiler = nullptr;
  // g80scope: when set, every launch derives its per-SM time series into
  // this session and the launch's timeline span is stamped with the record
  // id, letting scope::chrome_trace_with_counters align counter tracks
  // under the kernel slice.  Null = no scoping, zero additional work.
  scope::Session* scope = nullptr;
};

namespace detail {
// Modeled per-wave block spans of one kernel launch, relative to the op's
// start and scaled to fill `op_seconds`.  At most `max_spans` spans are
// emitted; longer launches merge consecutive waves into one span (the block
// ranges in the labels stay exact, so nothing is dropped silently).
std::vector<TimelineBlockSpan> wave_block_spans(const DeviceSpec& spec,
                                                const LaunchStats& stats,
                                                double op_seconds,
                                                int max_spans = 64);
}  // namespace detail

class Runtime {
 public:
  explicit Runtime(Device& dev, RuntimeOptions opt = {});
  ~Runtime();  // drains every stream, then joins all threads

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Device& device() { return dev_; }
  WorkerPool& pool() { return pool_; }
  prof::Profiler* profiler() { return profiler_; }
  scope::Session* scope() { return scope_; }

  // --- Streams ---
  Stream stream_create();
  // Drains the stream (like cudaStreamDestroy's implicit sync), then joins
  // its thread.  Further ops on the handle raise kInvalidResourceHandle.
  void stream_destroy(Stream s);
  // Blocks until every op enqueued so far has completed; rethrows the
  // stream's first asynchronous failure (sticky: rethrown again on the next
  // synchronize, and the Status stays recorded on the Device).
  void stream_synchronize(Stream s);
  bool stream_query(Stream s);  // true iff all enqueued work has completed
  // Synchronizes all live streams in creation order; rethrows the failure
  // of the lowest-id errored stream.
  void device_synchronize();

  // --- Per-stream error isolation (g80resil) ---
  // The Status of the stream's first asynchronous failure (kSuccess if none),
  // without waiting and without clearing it — the per-stream analogue of
  // Device::peek_last_error.  Other streams' failures never show here.
  Status stream_get_last_error(Stream s);
  // Clears the stream's sticky failure so subsequently enqueued ops execute
  // again (skipped ops are gone; they were drained, not replayed).  The
  // device-level sticky Status is untouched — clear it separately via
  // Device::get_last_error or Device::reset.
  void stream_clear_error(Stream s);

  // --- Events ---
  Event event_create();
  void event_destroy(Event e);  // waits for a pending record, then frees
  void event_record(Stream s, Event e);
  // True once the recorded op has completed and been committed to the
  // modeled timeline.  Never-recorded events are trivially complete.
  bool event_query(Event e);
  // Modeled seconds between two completed events (stop - start; events on
  // one stream are monotone).  Raises kNotReady before completion.
  double event_elapsed_seconds(Event start, Event stop);

  // --- Async ops (all FIFO within their stream) ---

  // The source is taken by value: the runtime owns it until the copy
  // executes, so the caller needs no lifetime discipline beyond `dst`.
  template <class T>
  void memcpy_h2d_async(Stream s, DeviceBuffer<T>& dst, std::vector<T> src) {
    auto data = std::make_shared<std::vector<T>>(std::move(src));
    const std::uint64_t bytes = data->size() * sizeof(T);
    enqueue(s, TimelineEngine::kCopy, "h2d " + std::to_string(bytes) + " B",
            [this, &dst, data](std::vector<TimelineBlockSpan>&,
                               std::uint64_t&) -> double {
              dst.copy_from_host(std::span<const T>(*data));
              const std::uint64_t n = data->size() * sizeof(T);
              const double secs = transfer_seconds(dev_.spec(), n, 1);
              if (profiler_ != nullptr)
                profiler_->record_transfer(/*h2d=*/true, n, secs);
              return secs;
            });
  }

  // `dst` is assigned when the copy executes; read it only after
  // synchronizing the stream.
  template <class T>
  void memcpy_d2h_async(Stream s, std::vector<T>& dst,
                        const DeviceBuffer<T>& src) {
    enqueue(s, TimelineEngine::kCopy,
            "d2h " + std::to_string(src.bytes()) + " B",
            [this, &dst, &src](std::vector<TimelineBlockSpan>&,
                               std::uint64_t&) -> double {
              dst = src.copy_to_host();
              const double secs = transfer_seconds(dev_.spec(), src.bytes(), 1);
              if (profiler_ != nullptr)
                profiler_->record_transfer(/*h2d=*/false, src.bytes(), secs);
              return secs;
            });
  }

  // Asynchronous kernel launch.  Buffers in `args` must stay alive until
  // the stream synchronizes.  `stats_out` (optional) is filled when the
  // launch completes — read it only after synchronizing.  Unless the caller
  // supplied an explicit pool, blocks fan out across this runtime's pool.
  // The finished launch is recorded into the runtime's profiler and scope
  // session (when set), keyed by LaunchOptions::kernel_name; the scope
  // record also carries this stream's id.
  template <class Kernel, class... Args>
  void launch_async(Stream s, Dim3 grid, Dim3 block, LaunchOptions opt,
                    LaunchStats* stats_out, const Kernel& kernel,
                    Args&... args) {
    const std::string label = "kernel " + std::to_string(grid.count()) +
                              " blocks" +
                              (opt.kernel_name.empty()
                                   ? std::string()
                                   : " (" + opt.kernel_name + ")");
    enqueue(s, TimelineEngine::kCompute, label,
            [this, grid, block, opt, stats_out, kernel, sid = s.id,
             targs = std::tuple<Args&...>(args...)](
                std::vector<TimelineBlockSpan>& blocks,
                std::uint64_t& scope_id) -> double {
              LaunchOptions o = opt;
              if (o.pool == nullptr) o.pool = &pool_;
              const LaunchStats st = std::apply(
                  [&](Args&... as) {
                    return g80::launch(dev_, grid, block, o, kernel, as...);
                  },
                  targs);
              if (stats_out != nullptr) *stats_out = st;
              const double secs = st.total_seconds(dev_.spec());
              if (profiler_ != nullptr) {
                profiler_->record_launch(o.kernel_name, dev_.spec(), st);
                blocks = detail::wave_block_spans(dev_.spec(), st, secs);
              }
              // The record id tags this op's timeline span.
              if (scope_ != nullptr)
                scope_id =
                    scope_->record_launch(o.kernel_name, dev_.spec(), st, sid);
              return secs;
            });
  }

  // Stream-ordered host callback (cudaLaunchHostFunc).  Takes no modeled
  // time and no engine.  Synchronizing this runtime from inside the
  // callback raises kNotPermitted — it would deadlock the stream.
  void host_func(Stream s, std::function<void()> fn);

  // --- g80obs ---
  // Registers this runtime's transfer-ledger totals as callback gauges in
  // `reg` under "<prefix>.ledger.*" (h2d_bytes, d2h_bytes, total_bytes,
  // transfer_count — the lifetime counters, which survive Device::reset).
  // Zero steady-state cost: the ledger is only read when `reg` is scraped,
  // so binding a runtime that is never scraped costs nothing per op.  The
  // registry must not outlive this runtime's Device.
  void bind_metrics(obs::MetricsRegistry& reg,
                    const std::string& prefix = "rt");

  // --- Modeled timeline ---
  // Spans commit in issue order as ops complete; synchronize first for a
  // complete picture.
  Timeline timeline_snapshot() const;
  double modeled_total_seconds();       // device_synchronize + makespan
  double modeled_serialized_seconds();  // device_synchronize + no-overlap sum

 private:
  struct EventImpl {
    bool recorded = false;   // an event_record op references this event
    bool complete = false;   // that op has committed
    double timestamp_s = 0;  // modeled stream time at the record point
  };

  struct Op {
    std::uint64_t seq = 0;
    TimelineEngine engine = TimelineEngine::kHost;
    std::string label;
    // Executes; returns the modeled duration and may fill per-wave block
    // spans (kernel ops under profiling) and the g80scope record id (kernel
    // ops under scoping) for the committed timeline span.
    std::function<double(std::vector<TimelineBlockSpan>&, std::uint64_t&)> run;
    EventImpl* event = nullptr;
  };

  struct StreamImpl {
    std::uint64_t id = 0;
    std::deque<Op> queue;  // guarded by the runtime mutex
    bool busy = false;     // thread is executing an op
    bool stop = false;
    std::exception_ptr error;  // first async failure; later ops are skipped
    Status error_status = Status::kSuccess;  // its Status, for peeking
    std::thread thread;
  };

  struct PendingCommit {
    std::uint64_t stream = 0;
    TimelineEngine engine = TimelineEngine::kHost;
    double duration_s = 0;
    std::string label;
    std::vector<TimelineBlockSpan> blocks;
    std::uint64_t scope_id = kNoScopeId;
    EventImpl* event = nullptr;
  };

  // All three validate handles and raise on misuse; callers hold mu_.
  StreamImpl& stream_impl_locked(const Stream& s);
  EventImpl& event_impl_locked(const Event& e);
  void check_not_callback(const char* what);

  void enqueue(
      const Stream& s, TimelineEngine engine, std::string label,
      std::function<double(std::vector<TimelineBlockSpan>&, std::uint64_t&)>
          run,
      EventImpl* event = nullptr);
  void stream_loop(StreamImpl* st);
  // Record one finished op and flush the commit chain in issue order.
  void commit_locked(std::uint64_t seq, PendingCommit pc);

  Device& dev_;
  WorkerPool pool_;
  prof::Profiler* profiler_ = nullptr;
  scope::Session* scope_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Timeline timeline_;
  std::map<std::uint64_t, std::unique_ptr<StreamImpl>> streams_;
  std::map<std::uint64_t, std::unique_ptr<EventImpl>> events_;
  std::map<std::uint64_t, PendingCommit> pending_;  // awaiting earlier seqs
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t next_event_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t commit_seq_ = 0;
  std::uint64_t reset_hook_id_ = 0;  // Device::reset integration
};

}  // namespace g80::rt
