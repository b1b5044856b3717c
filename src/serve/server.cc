#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/str.h"
#include "cudalite/device.h"
#include "hw/device_spec.h"
#include "serve/protocol.h"

namespace g80::serve {

namespace {

// One connected client.  Owned by shared_ptr: the session thread holds one
// reference and every in-flight scheduler callback holds another, so the
// socket and counters outlive whichever finishes last.
struct Session {
  Session(std::uint64_t id, int fd) : id(id), sock(fd) {}

  const std::uint64_t id;
  LineSocket sock;

  std::mutex write_mu;  // serializes response lines from all threads

  std::atomic<int> in_flight{0};  // queued + running jobs of this session

  // Remaining state is touched by the session thread and worker callbacks;
  // stats_mu guards it.
  std::mutex stats_mu;
  std::string name;
  std::uint64_t jobs_ok = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t cache_hits = 0;
  Status last_status = Status::kSuccess;
  TransferLedger ledger;  // per-client transfer accounting

  void write_response(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    sock.write_line(line);
  }
};

// Pre-registered metric handles for the request path: one pointer chase per
// increment, no name lookup.  The whole bundle is absent (null) when
// metrics are disabled, so the disabled path costs one pointer test.
struct ServeMetrics {
  explicit ServeMetrics(obs::MetricsRegistry& reg)
      : requests(reg.counter("serve.requests_total")),
        responses(reg.counter("serve.responses_total")),
        errors(reg.counter("serve.errors_total")),
        jobs_ok(reg.counter("serve.jobs_ok_total")),
        jobs_failed(reg.counter("serve.jobs_failed_total")),
        retries(reg.counter("serve.job_retries_total")),
        device_resets(reg.counter("serve.device_resets_total")),
        cache_mem_hits(reg.counter("serve.cache.mem_hits_total")),
        cache_disk_hits(reg.counter("serve.cache.disk_hits_total")),
        cache_misses(reg.counter("serve.cache.misses_total")),
        traces_total(reg.counter("serve.traces_total")),
        traces_complete(reg.counter("serve.traces_complete_total")) {}

  obs::Counter* requests;
  obs::Counter* responses;
  obs::Counter* errors;
  obs::Counter* jobs_ok;
  obs::Counter* jobs_failed;
  obs::Counter* retries;
  obs::Counter* device_resets;
  obs::Counter* cache_mem_hits;
  obs::Counter* cache_disk_hits;
  obs::Counter* cache_misses;
  obs::Counter* traces_total;
  obs::Counter* traces_complete;
};

// Routes g80resil's per-attempt callbacks (fired on the scheduler worker
// running the job) into the request's trace and the retry counter.  Kept
// alive by the completion callback's shared_ptr until the job is done.
class TraceAttemptObserver : public AttemptObserver {
 public:
  TraceAttemptObserver(std::shared_ptr<obs::RequestTrace> tr, ServeMetrics* m)
      : tr_(std::move(tr)), m_(m) {}

  void on_attempt_start(int attempt, int fallback_level) override {
    if (m_ != nullptr && attempt > 0) m_->retries->inc();
    if (tr_ != nullptr) {
      tr_->event("attempt_start", cat("attempt ", attempt, " fallback ",
                                      fallback_level));
    }
  }
  void on_attempt_failure(int attempt, Status status,
                          bool will_retry) override {
    if (tr_ != nullptr) {
      tr_->event(will_retry ? "attempt_retry" : "attempt_failed",
                 std::string(status_token(status)));
    }
    (void)attempt;
  }
  void on_attempt_success(int attempt, bool recovered) override {
    if (tr_ != nullptr) {
      tr_->event(recovered ? "attempt_recovered" : "attempt_ok",
                 cat("attempt ", attempt));
    }
  }

 private:
  std::shared_ptr<obs::RequestTrace> tr_;
  ServeMetrics* m_;
};

// Worker-thread span state of one scheduled job: written by on_start and
// read by the completion callback, both on the slot's worker thread (the
// orphaned-at-stop path reads the initial values instead, unraced).
struct JobTraceCtx {
  int queue_span = -1;
  int sim_span = -1;
};

std::string error_response(std::int64_t id, Status s, std::string_view msg) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", static_cast<std::uint64_t>(id));
  w.kv("status", status_token(s));
  w.kv("error", msg);
  w.end_object();
  return w.str();
}

std::string ok_response(std::int64_t id, std::string_view source,
                        std::string_view result_payload) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", static_cast<std::uint64_t>(id));
  w.kv("status", "ok");
  if (!source.empty()) w.kv("source", source);
  w.key("result");
  w.raw(result_payload);
  w.end_object();
  return w.str();
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerConfig cfg)
      : cfg(std::move(cfg)),
        cache(this->cfg.cache_entries, this->cfg.cache_dir),
        sched(this->cfg.pool),
        trace_ring(this->cfg.obs.trace_ring),
        log(this->cfg.obs.log_level, this->cfg.obs.log_json),
        obs_epoch(obs::steady_seconds()) {
    if (this->cfg.obs.log_sink) log.set_sink(this->cfg.obs.log_sink);
    if (this->cfg.obs.metrics) {
      m = std::make_unique<ServeMetrics>(registry);
      total_hist = registry.histogram("serve.latency.total");
      for (const char* phase : {"parse", "cache_lookup", "admission",
                                "queue_wait", "simulate", "cache_store",
                                "respond"}) {
        phase_hists[phase] = registry.histogram(cat("serve.latency.", phase));
      }
      // Instantaneous state is sampled at scrape time only — callback
      // gauges add zero steady-state work to the request path.
      registry.gauge_callback("serve.sessions.active", [this] {
        std::lock_guard<std::mutex> lock(mu);
        return static_cast<std::int64_t>(sessions.size());
      });
      registry.gauge_callback("serve.queue.depth", [this] {
        return static_cast<std::int64_t>(sched.stats().queue_depth);
      });
      for (const char* cls : {"gtx", "ultra", "gts"}) {
        registry.gauge_callback(
            cat("serve.queue.depth.", cls), [this, cls] {
              for (const ClassQueueStats& c : sched.stats().classes) {
                if (c.device_class == cls) {
                  return static_cast<std::int64_t>(c.queue_depth);
                }
              }
              return std::int64_t{0};
            });
      }
      registry.gauge_callback("serve.running", [this] {
        return static_cast<std::int64_t>(sched.stats().running);
      });
      registry.gauge_callback("serve.queue.rejected_not_ready", [this] {
        return static_cast<std::int64_t>(sched.stats().rejected_not_ready);
      });
      registry.gauge_callback("serve.pool.h2d_bytes", [this] {
        return static_cast<std::int64_t>(sched.stats().h2d_bytes);
      });
      registry.gauge_callback("serve.pool.d2h_bytes", [this] {
        return static_cast<std::int64_t>(sched.stats().d2h_bytes);
      });
      registry.gauge_callback("serve.pool.modeled_micros", [this] {
        return static_cast<std::int64_t>(sched.stats().modeled_seconds * 1e6);
      });
      registry.gauge_callback("serve.cache.mem_entries", [this] {
        return static_cast<std::int64_t>(cache.mem_entries());
      });
      registry.gauge_callback("serve.cache.stores", [this] {
        return static_cast<std::int64_t>(cache.counters().stores);
      });
      registry.gauge_callback("serve.cache.evictions", [this] {
        return static_cast<std::int64_t>(cache.counters().evictions);
      });
      registry.gauge_callback("serve.cache.disk_errors", [this] {
        return static_cast<std::int64_t>(cache.counters().disk_errors);
      });
    }
  }

  // Tracing (and span-fed histograms) are live when either consumer is on.
  bool obs_enabled() const {
    return m != nullptr || trace_ring.capacity() > 0;
  }

  std::shared_ptr<obs::RequestTrace> make_trace(std::uint64_t session_id) {
    if (!obs_enabled()) return nullptr;
    return std::make_shared<obs::RequestTrace>(session_id,
                                               obs::steady_seconds());
  }

  // Folds a finished trace into the metrics histograms, the ring, and the
  // logs.  `status` is the response's protocol status token; `source` is
  // the job response's source tag ("sim", "cache_mem", ...) or empty.
  void finish_trace(const std::shared_ptr<obs::RequestTrace>& tr,
                    std::string_view status, std::string_view source) {
    if (tr == nullptr) return;
    obs::TraceRecord rec = tr->finish(std::string(status));
    rec.start_s -= obs_epoch;  // ring records are daemon-relative
    if (m != nullptr) {
      m->responses->inc();
      if (status != "ok") m->errors->inc();
      m->traces_total->inc();
      if (rec.complete) m->traces_complete->inc();
      total_hist->observe(rec.total_s);
      for (const obs::Span& sp : rec.spans) {
        auto it = phase_hists.find(sp.name);
        if (it != phase_hists.end()) it->second->observe(sp.seconds());
      }
    }
    const bool slow = cfg.obs.slow_request_s > 0 &&
                      rec.total_s >= cfg.obs.slow_request_s;
    if (slow || log.enabled(obs::LogLevel::kDebug)) {
      auto ev = slow ? log.warn("slow_request") : log.debug("request_done");
      ev.field("session", rec.session)
          .field("id", rec.request_id)
          .field("op", rec.op)
          .field("status", status)
          .field("total_s", rec.total_s);
      if (!source.empty()) ev.field("source", source);
      for (const obs::Span& sp : rec.spans) {
        ev.field(cat(sp.name, "_s"), sp.seconds());
      }
    }
    trace_ring.add(std::move(rec));
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down
      }
      std::vector<std::thread> done;
      std::uint64_t new_session_id = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop_requested) {
          ::close(fd);
          return;
        }
        auto session = std::make_shared<Session>(next_session_id++, fd);
        ++accepted;
        sessions.push_back(session);
        std::thread t([this, session] { session_loop(session); });
        session_threads.emplace(session->id, std::move(t));
        done.swap(finished_threads);
        new_session_id = session->id;
      }
      log.info("session_accepted").field("session", new_session_id);
      // Reap sessions that disconnected since the last accept, so a
      // long-running daemon's thread handles and Session records don't
      // grow with its connection count.
      for (std::thread& t : done) t.join();
    }
  }

  void session_loop(std::shared_ptr<Session> s) {
    std::string line;
    for (;;) {
      try {
        if (!s->sock.read_line(line)) break;
      } catch (const Error&) {
        break;  // mid-line EOF or socket reset
      }
      if (line.empty()) continue;
      handle_line(s, line);
      if (stopping_after_response) break;
    }
    if (log.enabled(obs::LogLevel::kDebug)) {
      std::lock_guard<std::mutex> lock(s->stats_mu);
      log.debug("session_closed")
          .field("session", s->id)
          .field("client", s->name)
          .field("jobs_ok", s->jobs_ok)
          .field("jobs_failed", s->jobs_failed)
          .field("cache_hits", s->cache_hits);
    }
    // Drop this session's record (in-flight callbacks keep the Session
    // alive via their own shared_ptr) and park the thread handle for the
    // accept loop to join — a thread cannot join itself.  During shutdown
    // the map entry may already have been claimed for joining; skip then.
    std::lock_guard<std::mutex> lock(mu);
    sessions.erase(std::remove(sessions.begin(), sessions.end(), s),
                   sessions.end());
    if (auto it = session_threads.find(s->id); it != session_threads.end()) {
      finished_threads.push_back(std::move(it->second));
      session_threads.erase(it);
    }
  }

  // Formats a response line inside the trace's respond span, then finishes
  // the trace and only then writes the line.  The response is counted
  // before its bytes reach the client, so any scrape that client (or
  // another session) sends after reading it already includes it.
  template <class Format>
  void respond(const std::shared_ptr<Session>& s,
               const std::shared_ptr<obs::RequestTrace>& tr,
               const Format& format, std::string_view status,
               std::string_view source) {
    const int span = tr != nullptr ? tr->open("respond") : -1;
    const std::string line = format();
    if (tr != nullptr) {
      tr->close(span);
      // Jobs orphaned by Scheduler::stop never ran: their queue_wait span
      // is still open.  Close everything so the record is well-formed.
      tr->close_all("");
    }
    finish_trace(tr, status, source);
    try {
      s->write_response(line);
    } catch (const Error&) {
      // Session hung up before its answer was ready; nothing to tell it.
    }
  }

  void respond_ok(const std::shared_ptr<Session>& s,
                  const std::shared_ptr<obs::RequestTrace>& tr,
                  std::int64_t id, std::string_view source,
                  std::string_view payload) {
    respond(s, tr, [&] { return ok_response(id, source, payload); }, "ok",
            source);
  }

  // Error-response path shared by every failed request: unwinds the trace
  // (closing whatever phase the failure interrupted), then responds.
  void respond_error(const std::shared_ptr<Session>& s,
                     const std::shared_ptr<obs::RequestTrace>& tr,
                     std::int64_t id, Status st, std::string_view msg) {
    note_session_error(s, st);
    if (tr != nullptr) tr->close_all(std::string(status_token(st)));
    if (log.enabled(obs::LogLevel::kDebug)) {
      log.debug("request_error")
          .field("session", s->id)
          .field("id", id)
          .field("status", status_token(st))
          .field("error", msg);
    }
    respond(s, tr, [&] { return error_response(id, st, msg); },
            status_token(st), "");
  }

  void handle_line(const std::shared_ptr<Session>& s, const std::string& line) {
    if (m != nullptr) m->requests->inc();
    const std::shared_ptr<obs::RequestTrace> tr = make_trace(s->id);
    std::int64_t id = 0;
    try {
      const int parse_span = tr != nullptr ? tr->open("parse") : -1;
      const JsonValue doc = JsonValue::parse(line);
      if (doc.is_object()) id = doc.get_int("id", 0);
      const JobRequest req = parse_request(doc);
      id = req.id;
      if (tr != nullptr) {
        tr->set_identity(std::string(op_name(req.op)), id);
        tr->close(parse_span);
      }
      switch (req.op) {
        case Op::kPing: {
          JsonWriter w;
          w.begin_object();
          w.kv("pong", true);
          w.kv("protocol_version", kProtocolVersion);
          w.end_object();
          respond_ok(s, tr, id, "", w.str());
          return;
        }
        case Op::kHello: {
          {
            std::lock_guard<std::mutex> lock(s->stats_mu);
            s->name = req.client_name;
          }
          JsonWriter w;
          w.begin_object();
          w.kv("session", s->id);
          w.kv("protocol_version", kProtocolVersion);
          w.kv("model_version", kModelVersion);
          w.end_object();
          respond_ok(s, tr, id, "", w.str());
          return;
        }
        case Op::kStats:
          respond_ok(s, tr, id, "", stats_payload(s));
          return;
        case Op::kMetrics: {
          if (m == nullptr) {
            throw StatusError(Status::kNotPermitted,
                              "metrics are disabled on this server");
          }
          // The snapshot is taken before this request's own response is
          // counted, so a scraper's delta between two scrapes covers
          // exactly the earlier scrape's response plus everything between.
          respond_ok(s, tr, id, "", obs::metrics_json(registry.snapshot()));
          return;
        }
        case Op::kTraces: {
          if (trace_ring.capacity() == 0) {
            throw StatusError(Status::kNotPermitted,
                              "request tracing is disabled on this server");
          }
          respond_ok(s, tr, id, "",
                     obs::traces_json(trace_ring.snapshot()));
          return;
        }
        case Op::kShutdown: {
          JsonWriter w;
          w.begin_object();
          w.kv("stopping", true);
          w.end_object();
          respond_ok(s, tr, id, "", w.str());
          log.info("shutdown_requested").field("session", s->id);
          stopping_after_response = true;
          request_shutdown();
          return;
        }
        case Op::kLaunch:
        case Op::kAutotune:
        case Op::kProfile:
          dispatch_job(s, req, tr);
          return;
      }
    } catch (const StatusError& e) {
      respond_error(s, tr, id, e.status(), e.what());
    } catch (const Error& e) {
      respond_error(s, tr, id, Status::kInvalidValue, e.what());
    }
  }

  void dispatch_job(const std::shared_ptr<Session>& s, const JobRequest& req,
                    const std::shared_ptr<obs::RequestTrace>& tr) {
    // Pure validation + key derivation before any device is involved.
    const DeviceSpec spec = spec_for_class(req.device_class);
    const LaunchConfig resolved = resolve_config(req);
    const std::uint64_t key = job_cache_key(req, resolved,
                                            device_spec_hash(spec));

    // Fault jobs exist to fail; no_cache jobs opted out.  Neither consults
    // the cache, and their outcomes never enter it.
    const bool cacheable = !req.no_cache && !req.fault.enabled();
    if (cacheable) {
      std::string payload;
      const int lookup_span = tr != nullptr ? tr->open("cache_lookup") : -1;
      const ResultCache::Tier tier = cache.lookup(key, payload);
      const bool mem = tier == ResultCache::Tier::kMemory;
      if (tr != nullptr) {
        tr->close(lookup_span, tier == ResultCache::Tier::kMiss
                                   ? "miss"
                                   : (mem ? "mem" : "disk"));
      }
      if (m != nullptr) {
        if (tier == ResultCache::Tier::kMiss) {
          m->cache_misses->inc();
        } else {
          (mem ? m->cache_mem_hits : m->cache_disk_hits)->inc();
        }
      }
      if (tier != ResultCache::Tier::kMiss) {
        {
          std::lock_guard<std::mutex> lock(s->stats_mu);
          ++s->cache_hits;
          ++s->jobs_ok;
        }
        const std::string_view source = mem ? "cache_mem" : "cache_disk";
        respond_ok(s, tr, req.id, source, payload);
        return;
      }
    }

    // Per-session admission: reject, don't queue, past the in-flight cap.
    // (fetch_add + re-check keeps concurrent pipelined requests honest.)
    const int admission_span = tr != nullptr ? tr->open("admission") : -1;
    if (s->in_flight.fetch_add(1) >= cfg.max_inflight_per_session) {
      s->in_flight.fetch_sub(1);
      if (tr != nullptr) tr->close(admission_span, "rejected");
      throw StatusError(Status::kNotReady,
                        cat("session has ", cfg.max_inflight_per_session,
                            " jobs in flight"));
    }
    if (tr != nullptr) tr->close(admission_span);

    // Observation hooks for the scheduler/worker half of the pipeline:
    // queue_wait closes (and simulate opens) on the worker thread the
    // moment the job binds to a slot; resil attempts and device resets land
    // as trace events.  The completion callback's captures keep the trace
    // and observer alive until the job is fully answered.
    JobHooks hooks;
    auto ctx = std::make_shared<JobTraceCtx>();
    std::shared_ptr<TraceAttemptObserver> attempts;
    if (tr != nullptr) {
      ctx->queue_span = tr->open("queue_wait");
      hooks.on_start = [tr, ctx] {
        tr->close(ctx->queue_span);
        ctx->sim_span = tr->open("simulate");
      };
      hooks.on_event = [this, tr](const std::string& name,
                                  const std::string& note) {
        tr->event(name, note);
        if (m != nullptr && name == "device_reset") m->device_resets->inc();
      };
      attempts = std::make_shared<TraceAttemptObserver>(tr, m.get());
      hooks.attempts = attempts.get();
    }
    const std::int64_t id = req.id;
    try {
      sched.submit(
          req,
          [this, s, id, key, cacheable, tr, ctx,
           attempts](const JobOutcome& out) {
            s->in_flight.fetch_sub(1);
            {
              std::lock_guard<std::mutex> lock(s->stats_mu);
              if (out.status == Status::kSuccess) {
                ++s->jobs_ok;
              } else {
                ++s->jobs_failed;
                s->last_status = out.status;
              }
              if (out.h2d_bytes > 0) s->ledger.record_h2d(out.h2d_bytes);
              if (out.d2h_bytes > 0) s->ledger.record_d2h(out.d2h_bytes);
            }
            if (m != nullptr) {
              (out.status == Status::kSuccess ? m->jobs_ok : m->jobs_failed)
                  ->inc();
            }
            if (tr != nullptr && ctx->sim_span >= 0) {
              tr->close(ctx->sim_span,
                        std::string(status_token(out.status)));
            }
            if (out.status == Status::kSuccess && cacheable) {
              // This callback runs on a scheduler worker with no handler
              // above it — an escaping exception would std::terminate the
              // daemon.  store() swallows disk-tier failures itself; this
              // guard covers anything else (e.g. allocation failure copying
              // the payload).
              const int store_span =
                  tr != nullptr ? tr->open("cache_store") : -1;
              try {
                cache.store(key, out.payload);
              } catch (...) {
              }
              if (tr != nullptr) tr->close(store_span);
            }
            const bool ok = out.status == Status::kSuccess;
            respond(
                s, tr,
                [&] {
                  return ok ? ok_response(id, "sim", out.payload)
                            : error_response(id, out.status, out.error);
                },
                status_token(out.status), ok ? "sim" : "");
          },
          std::move(hooks));
    } catch (...) {
      s->in_flight.fetch_sub(1);
      throw;
    }
  }

  std::string stats_payload(const std::shared_ptr<Session>& s) {
    const CacheCounters cc = cache.counters();
    const SchedulerStats ss = sched.stats();
    JsonWriter w;
    w.begin_object();
    w.key("server");
    w.begin_object();
    w.kv("sessions_accepted", accepted.load());
    w.kv("slots", ss.slots);
    w.kv("running", ss.running);
    w.kv("queue_depth", static_cast<std::uint64_t>(ss.queue_depth));
    w.kv("jobs_ok", ss.jobs_ok);
    w.kv("jobs_failed", ss.jobs_failed);
    w.kv("device_resets", ss.device_resets);
    w.kv("rejected_not_ready", ss.rejected_not_ready);
    w.kv("h2d_bytes", ss.h2d_bytes);
    w.kv("d2h_bytes", ss.d2h_bytes);
    w.kv("modeled_seconds", ss.modeled_seconds);
    // Per-class queue state — the aggregate queue_depth above can hide one
    // saturated class behind two idle ones.
    w.key("queues");
    w.begin_object();
    for (const ClassQueueStats& c : ss.classes) {
      w.key(c.device_class);
      w.begin_object();
      w.kv("queued", static_cast<std::uint64_t>(c.queue_depth));
      w.kv("slots", c.slots);
      w.end_object();
    }
    w.end_object();
    w.key("cache");
    w.begin_object();
    w.kv("mem_hits", cc.mem_hits);
    w.kv("disk_hits", cc.disk_hits);
    w.kv("misses", cc.misses);
    w.kv("stores", cc.stores);
    w.kv("evictions", cc.evictions);
    w.kv("disk_errors", cc.disk_errors);
    w.kv("mem_entries", static_cast<std::uint64_t>(cache.mem_entries()));
    w.end_object();
    w.end_object();
    w.key("session");
    w.begin_object();
    std::lock_guard<std::mutex> lock(s->stats_mu);
    w.kv("id", s->id);
    w.kv("client", s->name);
    w.kv("in_flight", s->in_flight.load());
    w.kv("jobs_ok", s->jobs_ok);
    w.kv("jobs_failed", s->jobs_failed);
    w.kv("cache_hits", s->cache_hits);
    w.kv("last_status", status_token(s->last_status));
    w.kv("h2d_bytes", s->ledger.lifetime_h2d_bytes());
    w.kv("d2h_bytes", s->ledger.lifetime_d2h_bytes());
    w.end_object();
    w.end_object();
    return w.str();
  }

  void note_session_error(const std::shared_ptr<Session>& s, Status st) {
    std::lock_guard<std::mutex> lock(s->stats_mu);
    ++s->jobs_failed;
    s->last_status = st;
  }

  void request_shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop_requested = true;
    }
    cv.notify_all();
  }

  ServerConfig cfg;
  ResultCache cache;
  Scheduler sched;

  // g80obs state.  The registry always exists (it is one mutex and an empty
  // vector when unused); `m` being null is the metrics-off fast path.
  obs::MetricsRegistry registry;
  std::unique_ptr<ServeMetrics> m;
  obs::LatencyHistogram* total_hist = nullptr;
  std::unordered_map<std::string, obs::LatencyHistogram*> phase_hists;
  obs::TraceRing trace_ring;
  obs::Logger log;
  const double obs_epoch;  // steady-clock origin of ring-record timestamps

  int listen_fd = -1;
  std::thread accept_thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;
  bool torn_down = false;
  // Live sessions and their reader threads, keyed by session id; threads
  // whose loops have exited move to finished_threads until a join point
  // (the next accept, or shutdown).
  std::vector<std::shared_ptr<Session>> sessions;
  std::unordered_map<std::uint64_t, std::thread> session_threads;
  std::vector<std::thread> finished_threads;
  std::uint64_t next_session_id = 1;
  std::atomic<std::uint64_t> accepted{0};
  // Set by the shutdown op's session so its loop exits after responding.
  thread_local static bool stopping_after_response;
};

thread_local bool Server::Impl::stopping_after_response = false;

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() { shutdown(); }

void Server::start() {
  Impl& im = *impl_;
  im.listen_fd = listen_unix(im.cfg.socket_path);
  im.accept_thread = std::thread([&im] { im.accept_loop(); });
}

void Server::wait() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  im.cv.wait(lock, [&im] { return im.stop_requested; });
}

void Server::request_shutdown() { impl_->request_shutdown(); }

void Server::shutdown() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.torn_down) return;
    im.torn_down = true;
    im.stop_requested = true;
  }
  im.cv.notify_all();
  if (im.listen_fd >= 0) {
    ::shutdown(im.listen_fd, SHUT_RDWR);
  }
  if (im.accept_thread.joinable()) im.accept_thread.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    ::unlink(im.cfg.socket_path.c_str());
  }
  // Unblock session readers, then let the scheduler finish running jobs so
  // their callbacks fire (onto now-dead sockets, harmlessly).
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    sessions = im.sessions;
    for (auto& [id, t] : im.session_threads) threads.push_back(std::move(t));
    im.session_threads.clear();
    for (auto& t : im.finished_threads) threads.push_back(std::move(t));
    im.finished_threads.clear();
  }
  for (const auto& s : sessions) ::shutdown(s->sock.fd(), SHUT_RDWR);
  for (auto& t : threads) t.join();
  im.sched.stop();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.sessions.clear();
  }
}

const ServerConfig& Server::config() const { return impl_->cfg; }

CacheCounters Server::cache_counters() const { return impl_->cache.counters(); }

SchedulerStats Server::scheduler_stats() const { return impl_->sched.stats(); }

obs::MetricsSnapshot Server::metrics_snapshot() const {
  if (impl_->m == nullptr) return {};
  return impl_->registry.snapshot();
}

std::vector<obs::TraceRecord> Server::traces() const {
  return impl_->trace_ring.snapshot();
}

obs::Logger& Server::logger() { return impl_->log; }

std::uint64_t Server::sessions_accepted() const {
  return impl_->accepted.load();
}

std::size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->sessions.size();
}

}  // namespace g80::serve
