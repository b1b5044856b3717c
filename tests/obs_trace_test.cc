// g80obs request tracing: RequestTrace span lifecycle and completeness
// rules, TraceRing wraparound, and the end-to-end span tree an in-process
// g80serve daemon produces — cold simulation, cache hit, the g80resil retry
// path (attempt events reach the request's observer through
// LaunchOptions::attempts, which run_job sets from the job's hooks),
// metrics reconciliation against traces, the slow-request log, and the
// metrics / traces protocol ops with their not_permitted gates.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"

namespace g80::serve {
namespace {

using obs::RequestTrace;
using obs::TraceRecord;
using obs::TraceRing;

// Unique, short socket paths (sockaddr_un caps them near 108 bytes).
std::string test_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/g80o_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

JobRequest saxpy_job(std::int64_t n = 4096, std::int64_t seed = 3) {
  JobRequest req;
  req.op = Op::kLaunch;
  req.kernel = "saxpy";
  req.n = n;
  req.seed = seed;
  return req;
}

std::vector<std::string> span_names(const TraceRecord& rec) {
  std::vector<std::string> names;
  for (const auto& s : rec.spans) names.push_back(s.name);
  return names;
}

int count_events(const TraceRecord& rec, const std::string& name) {
  int n = 0;
  for (const auto& e : rec.events) n += e.name == name;
  return n;
}

// ---- RequestTrace unit ----------------------------------------------------

TEST(ObsRequestTrace, SpanLifecycleProducesCompleteRecord) {
  RequestTrace tr(7, obs::steady_seconds());
  tr.set_identity("launch", 42);
  const int parse = tr.open("parse");
  tr.close(parse);
  const int sim = tr.open("simulate");
  tr.event("attempt_start", "attempt 0 fallback 0");
  tr.close(sim, "ok");

  const TraceRecord rec = tr.finish("ok");
  EXPECT_EQ(rec.session, 7u);
  EXPECT_EQ(rec.request_id, 42);
  EXPECT_EQ(rec.op, "launch");
  EXPECT_EQ(rec.status, "ok");
  EXPECT_TRUE(rec.complete);
  EXPECT_GE(rec.total_s, 0.0);
  ASSERT_EQ(rec.spans.size(), 2u);
  EXPECT_EQ(span_names(rec), (std::vector<std::string>{"parse", "simulate"}));
  EXPECT_TRUE(rec.spans[0].closed());
  EXPECT_EQ(rec.spans[1].note, "ok");
  EXPECT_LE(rec.spans[0].start_s, rec.spans[1].start_s);
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_EQ(rec.events[0].name, "attempt_start");
  EXPECT_EQ(rec.events[0].note, "attempt 0 fallback 0");
}

TEST(ObsRequestTrace, OpenSpanOrEmptyTraceIsIncomplete) {
  RequestTrace open_span(1, obs::steady_seconds());
  open_span.open("parse");
  EXPECT_FALSE(open_span.finish("ok").complete);

  RequestTrace empty(2, obs::steady_seconds());
  EXPECT_FALSE(empty.finish("ok").complete);
}

TEST(ObsRequestTrace, CloseAllClosesOnlyOpenSpans) {
  RequestTrace tr(3, obs::steady_seconds());
  const int a = tr.open("parse");
  tr.close(a, "done");
  tr.open("simulate");
  tr.open("respond");
  tr.close_all("cancelled");
  // First close wins: a later close (or close_all) must not overwrite.
  tr.close(a, "overwrite");

  const TraceRecord rec = tr.finish("not_ready");
  EXPECT_TRUE(rec.complete);
  EXPECT_EQ(rec.spans[0].note, "done");
  EXPECT_EQ(rec.spans[1].note, "cancelled");
  EXPECT_EQ(rec.spans[2].note, "cancelled");
}

TEST(ObsRequestTrace, CloseWithBogusIndexIsIgnored) {
  RequestTrace tr(4, obs::steady_seconds());
  const int a = tr.open("parse");
  tr.close(-1);
  tr.close(99);
  tr.close(a);
  EXPECT_TRUE(tr.finish("ok").complete);
}

// ---- TraceRing ------------------------------------------------------------

TEST(ObsTraceRing, KeepsMostRecentCapacityRecords) {
  TraceRing ring(3);
  for (int i = 1; i <= 5; ++i) {
    TraceRecord rec;
    rec.request_id = i;
    ring.add(rec);
  }
  EXPECT_EQ(ring.size(), 3u);
  const auto recs = ring.snapshot();
  ASSERT_EQ(recs.size(), 3u);
  // Oldest at the front; 1 and 2 were evicted.
  EXPECT_EQ(recs[0].request_id, 3);
  EXPECT_EQ(recs[2].request_id, 5);
}

TEST(ObsTraceRing, CapacityZeroDisablesStorage) {
  TraceRing ring(0);
  ring.add(TraceRecord{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(ObsTraceRing, TracesJsonRoundTrips) {
  RequestTrace tr(9, obs::steady_seconds());
  tr.set_identity("launch", 11);
  tr.close(tr.open("parse"));
  tr.event("attempt_start");
  const std::string json = obs::traces_json({tr.finish("ok")});

  const JsonValue doc = JsonValue::parse(json);
  const JsonValue& arr = doc.require("traces");
  ASSERT_EQ(arr.size(), 1u);
  const JsonValue& t = arr.at(0);
  EXPECT_EQ(t.require("session").as_int(), 9);
  EXPECT_EQ(t.require("id").as_int(), 11);
  EXPECT_EQ(t.require("op").as_string(), "launch");
  EXPECT_TRUE(t.require("complete").as_bool());
  EXPECT_EQ(t.require("spans").at(0).require("name").as_string(), "parse");
  EXPECT_EQ(t.require("events").at(0).require("name").as_string(),
            "attempt_start");
}

// ---- end-to-end span trees ------------------------------------------------

const TraceRecord* find_trace(const std::vector<TraceRecord>& recs, Op op,
                              const std::string& status) {
  for (const auto& r : recs) {
    if (r.op == op_name(op) && r.status == status) return &r;
  }
  return nullptr;
}

TEST(ObsServeTrace, ColdJobTraceCoversEveryPhase) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("cold");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  const Response r = client.call(saxpy_job());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.source, "sim");

  // The response is written inside the respond span, so the trace finishes
  // (and reaches the ring) only after the client already has its bytes:
  // join every server thread before asserting.
  server.shutdown();

  const auto recs = server.traces();
  const TraceRecord* rec = find_trace(recs, Op::kLaunch, "ok");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->complete);
  EXPECT_EQ(span_names(*rec),
            (std::vector<std::string>{"parse", "cache_lookup", "admission",
                                      "queue_wait", "simulate", "cache_store",
                                      "respond"}));
  // Span notes carry phase outcomes: the lookup missed, the sim succeeded.
  EXPECT_EQ(rec->spans[1].note, "miss");
  EXPECT_EQ(rec->spans[4].note, "ok");
  // The pool policy is enabled by default, so the single successful attempt
  // shows up as attempt_start + attempt_ok.
  EXPECT_EQ(count_events(*rec, "attempt_start"), 1);
  EXPECT_EQ(count_events(*rec, "attempt_ok"), 1);
  // Ring records are daemon-relative and self-consistent.
  EXPECT_GE(rec->start_s, 0.0);
  for (const auto& s : rec->spans) {
    EXPECT_GE(s.start_s, 0.0);
    EXPECT_LE(s.end_s, rec->total_s + 1e-9);
  }
}

TEST(ObsServeTrace, CacheHitTraceHasNoSimulatePhase) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("hit");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  ASSERT_TRUE(client.call(saxpy_job()).ok());
  const Response warm = client.call(saxpy_job());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.source, "cache_mem");
  server.shutdown();  // traces land after the response: join first

  const auto recs = server.traces();
  ASSERT_GE(recs.size(), 3u);  // hello + cold + warm
  // The cold job's trace lands from the worker thread after its response,
  // so ring order vs the warm trace is not deterministic — select the hit
  // by its cache_lookup note instead of by position.
  const TraceRecord* rec = nullptr;
  for (const auto& r : recs) {
    if (r.spans.size() > 1 && r.spans[1].note == "mem") rec = &r;
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->complete);
  EXPECT_EQ(span_names(*rec),
            (std::vector<std::string>{"parse", "cache_lookup", "respond"}));
  EXPECT_TRUE(rec->events.empty());  // no scheduler, no attempts

  const auto snap = server.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snap.value("serve.cache.mem_hits_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.cache.misses_total"), 1.0);
}

TEST(ObsServeTrace, RetryPathEmitsAttemptEvents) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("retry");
  cfg.obs.log_level = obs::LogLevel::kOff;
  // Every job's first attempt fails with a synthetic transient fault; the
  // pool default allows one retry, so jobs recover on attempt 1.
  cfg.pool.policy.inject_transient_failures = 1;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  const Response r = client.call(saxpy_job());
  ASSERT_TRUE(r.ok()) << r.error;
  server.shutdown();  // traces land after the response: join first

  const auto recs = server.traces();
  const TraceRecord* rec = find_trace(recs, Op::kLaunch, "ok");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->complete);
  EXPECT_EQ(count_events(*rec, "attempt_start"), 2);
  EXPECT_EQ(count_events(*rec, "attempt_retry"), 1);
  EXPECT_EQ(count_events(*rec, "attempt_recovered"), 1);
  EXPECT_EQ(count_events(*rec, "attempt_ok"), 0);

  const auto snap = server.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snap.value("serve.job_retries_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.jobs_ok_total"), 1.0);
}

TEST(ObsServeTrace, MetricsReconcileWithTraces) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("recon");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  JobRequest ping;
  ping.op = Op::kPing;
  ASSERT_TRUE(client.call(ping).ok());
  ASSERT_TRUE(client.call(saxpy_job(4096, 1)).ok());
  ASSERT_TRUE(client.call(saxpy_job(4096, 2)).ok());
  ASSERT_TRUE(client.call(saxpy_job(4096, 1)).ok());  // cache hit
  server.shutdown();  // traces land after the response: join first

  // hello + ping + 3 launches = 5 requests, every one answered and traced.
  const auto snap = server.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snap.value("serve.requests_total"), 5.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.responses_total"), 5.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.errors_total"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.traces_total"), 5.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.traces_complete_total"), 5.0);

  const auto* total = snap.find("serve.latency.total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 5u);
  // Per-phase histograms: 3 launches parsed + ping + hello; 2 simulated.
  EXPECT_EQ(snap.find("serve.latency.parse")->count, 5u);
  EXPECT_EQ(snap.find("serve.latency.simulate")->count, 2u);
  EXPECT_EQ(snap.find("serve.latency.cache_lookup")->count, 3u);

  const auto recs = server.traces();
  EXPECT_EQ(recs.size(), 5u);
  EXPECT_TRUE(std::all_of(recs.begin(), recs.end(),
                          [](const TraceRecord& r) { return r.complete; }));
}

TEST(ObsServeTrace, RejectedRequestTraceIsCompleteAndCountsAsError) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("rej");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  JobRequest bad = saxpy_job();
  bad.kernel = "no-such-kernel";
  const Response r = client.call(bad);
  EXPECT_FALSE(r.ok());
  server.shutdown();  // traces land after the response: join first

  const auto recs = server.traces();
  const TraceRecord& rec = recs.back();
  EXPECT_NE(rec.status, "ok");
  EXPECT_TRUE(rec.complete);  // error unwinding must still close every span
  EXPECT_EQ(rec.spans.back().name, "respond");

  const auto snap = server.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snap.value("serve.errors_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("serve.traces_complete_total"),
                   snap.value("serve.traces_total"));
}

TEST(ObsServeTrace, TraceRingHonorsConfiguredCapacity) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("cap");
  cfg.obs.log_level = obs::LogLevel::kOff;
  cfg.obs.trace_ring = 2;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  JobRequest ping;
  ping.op = Op::kPing;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client.call(ping).ok());
  server.shutdown();  // traces land after the response: join first

  const auto recs = server.traces();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].op, "ping");
  EXPECT_EQ(recs[1].op, "ping");
}

// ---- slow-request logging -------------------------------------------------

TEST(ObsServeTrace, SlowRequestEmitsWarnWithPhaseTimings) {
  std::mutex mu;
  std::vector<std::string> lines;
  ServerConfig cfg;
  cfg.socket_path = test_socket("slow");
  cfg.obs.slow_request_s = 1e-9;  // every request is "slow"
  cfg.obs.log_json = true;
  cfg.obs.log_sink = [&](std::string_view l) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(l);
  };
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");
  ASSERT_TRUE(client.call(saxpy_job()).ok());
  server.shutdown();

  std::lock_guard<std::mutex> lock(mu);
  const JsonValue* slow = nullptr;
  std::vector<JsonValue> docs;
  for (const auto& l : lines) docs.push_back(JsonValue::parse(l));
  for (const auto& d : docs) {
    if (d.require("event").as_string() == "slow_request" &&
        d.get_string("op", "") == "launch") {
      slow = &d;
    }
  }
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->require("level").as_string(), "warn");
  EXPECT_EQ(slow->require("status").as_string(), "ok");
  EXPECT_GT(slow->require("total_s").as_number(), 0.0);
  // Per-phase timings ride on the event.
  EXPECT_NE(slow->get("simulate_s"), nullptr);
  EXPECT_NE(slow->get("queue_wait_s"), nullptr);
}

// ---- protocol ops and exporters -------------------------------------------

TEST(ObsServeTrace, MetricsAndTracesOpsExport) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("ops");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");
  ASSERT_TRUE(client.call(saxpy_job()).ok());

  JobRequest mreq;
  mreq.op = Op::kMetrics;
  const Response mr = client.call(mreq);
  ASSERT_TRUE(mr.ok()) << mr.error;
  const JsonValue metrics = JsonValue::parse(mr.result_json);
  EXPECT_GT(metrics.require("metrics").size(), 0u);
  const std::string prom = obs::prometheus_text(metrics);
  EXPECT_NE(prom.find("g80_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("g80_serve_latency_total_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // The launch trace reaches the ring before its response is written, so
  // the first traces op already holds it.
  JobRequest treq;
  treq.op = Op::kTraces;
  const Response tr = client.call(treq);
  ASSERT_TRUE(tr.ok()) << tr.error;
  const std::string& traces_payload = tr.result_json;
  EXPECT_NE(traces_payload.find("\"launch\""), std::string::npos);
  const JsonValue traces = JsonValue::parse(traces_payload);
  EXPECT_GT(traces.require("traces").size(), 0u);
  const std::string chrome = obs::chrome_trace_from_traces(traces);
  const JsonValue doc = JsonValue::parse(chrome);
  EXPECT_GT(doc.require("traceEvents").size(), 0u);
  EXPECT_NE(chrome.find("launch [ok]"), std::string::npos);
  EXPECT_NE(chrome.find("queue_wait"), std::string::npos);

  server.shutdown();
}

TEST(ObsServeTrace, DisabledObsAnswersNotPermitted) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("off");
  cfg.obs.metrics = false;
  cfg.obs.trace_ring = 0;
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path, "trace-test");

  // The service itself still works on the pre-obs fast path.
  ASSERT_TRUE(client.call(saxpy_job()).ok());
  EXPECT_TRUE(server.metrics_snapshot().samples.empty());
  EXPECT_TRUE(server.traces().empty());

  JobRequest mreq;
  mreq.op = Op::kMetrics;
  EXPECT_EQ(client.call(mreq).status, Status::kNotPermitted);
  JobRequest treq;
  treq.op = Op::kTraces;
  EXPECT_EQ(client.call(treq).status, Status::kNotPermitted);

  server.shutdown();
}

}  // namespace
}  // namespace g80::serve
