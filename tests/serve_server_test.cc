// End-to-end g80serve protocol tests against an in-process Server on a real
// unix socket: session lifecycle (ping/hello/stats), job execution for
// every op, the result cache's observable behaviour (sim -> cache_mem ->
// cache_disk across a restart, byte-identical results), typed rejections
// (invalid kernels/configs, kNotReady admission control), and clean
// shutdown.  serve_isolation_test.cc covers the concurrent/adversarial
// side; this file is the functional contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "serve/client.h"
#include "serve/server.h"

namespace g80::serve {
namespace {

// Unique, short socket paths (sockaddr_un caps them near 108 bytes).
std::string test_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/g80s_" + std::to_string(::getpid()) + "_" + tag + "_" +
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

JobRequest matmul_job(std::int64_t n = 64, const char* variant = "tiled") {
  JobRequest req;
  req.op = Op::kLaunch;
  req.kernel = "matmul";
  req.n = n;
  req.seed = 5;
  req.tile = 16;
  req.variant = variant;
  return req;
}

TEST(ServeServer, PingHelloStats) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("ping");
  Server server(cfg);
  server.start();

  Client client(cfg.socket_path, "unit-test");
  EXPECT_GT(client.session_id(), 0u);

  JobRequest ping;
  ping.op = Op::kPing;
  const Response pr = client.call(ping);
  ASSERT_TRUE(pr.ok()) << pr.error;
  EXPECT_TRUE(pr.doc.require("result").require("pong").as_bool());

  JobRequest stats;
  stats.op = Op::kStats;
  const Response sr = client.call(stats);
  ASSERT_TRUE(sr.ok()) << sr.error;
  const JsonValue& result = sr.doc.require("result");
  EXPECT_EQ(result.require("server").get_int("slots", -1),
            cfg.pool.total_slots());
  EXPECT_EQ(result.require("session").get_string("client", ""), "unit-test");

  server.shutdown();
}

TEST(ServeServer, LaunchColdThenWarmIsByteIdentical) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("warm");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  const Response cold = client.call(saxpy_job());
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.source, "sim");
  ASSERT_FALSE(cold.result_json.empty());

  const Response warm = client.call(saxpy_job());
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.source, "cache_mem");
  // The contract of the exact cache: warm result bytes == cold result bytes.
  EXPECT_EQ(warm.result_json, cold.result_json);

  // A different seed is a different cache key.
  const Response other = client.call(saxpy_job(4096, 4));
  ASSERT_TRUE(other.ok()) << other.error;
  EXPECT_EQ(other.source, "sim");
  EXPECT_NE(other.result_json, cold.result_json);

  // no_cache bypasses the cache but must reproduce the same bytes — the
  // simulation is deterministic.
  JobRequest bypass = saxpy_job();
  bypass.no_cache = true;
  const Response re = client.call(bypass);
  ASSERT_TRUE(re.ok()) << re.error;
  EXPECT_EQ(re.source, "sim");
  EXPECT_EQ(re.result_json, cold.result_json);

  const CacheCounters cc = server.cache_counters();
  EXPECT_EQ(cc.mem_hits, 1u);
  EXPECT_EQ(cc.misses, 2u);
  server.shutdown();
}

TEST(ServeServer, DiskCacheSurvivesRestart) {
  char tmpl[] = "/tmp/g80servedXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string cache_dir = tmpl;

  std::string cold_json;
  {
    ServerConfig cfg;
    cfg.socket_path = test_socket("disk1");
    cfg.cache_dir = cache_dir;
    Server server(cfg);
    server.start();
    Client client(cfg.socket_path);
    const Response cold = client.call(matmul_job());
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_EQ(cold.source, "sim");
    cold_json = cold.result_json;
    server.shutdown();
  }
  {
    ServerConfig cfg;
    cfg.socket_path = test_socket("disk2");
    cfg.cache_dir = cache_dir;
    Server server(cfg);
    server.start();
    Client client(cfg.socket_path);
    const Response warm = client.call(matmul_job());
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_EQ(warm.source, "cache_disk");
    EXPECT_EQ(warm.result_json, cold_json);
    server.shutdown();
  }
}

TEST(ServeServer, AutotuneAndProfileOps) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("tune");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  JobRequest tune = matmul_job(64);
  tune.op = Op::kAutotune;
  const Response tr = client.call(tune);
  ASSERT_TRUE(tr.ok()) << tr.error;
  const JsonValue& result = tr.doc.require("result");
  EXPECT_GE(result.require("candidates").size(), 4u);
  EXPECT_FALSE(result.require("best").get_string("variant", "").empty());
  // Autotune results cache like any job.
  const Response tr2 = client.call(tune);
  ASSERT_TRUE(tr2.ok());
  EXPECT_EQ(tr2.source, "cache_mem");
  EXPECT_EQ(tr2.result_json, tr.result_json);

  JobRequest prof = saxpy_job(2048);
  prof.op = Op::kProfile;
  const Response pr = client.call(prof);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const JsonValue& profile = pr.doc.require("result").require("profile");
  EXPECT_GE(profile.get_int("launches", 0), 1);
  server.shutdown();
}

TEST(ServeServer, AutotuneKeepsRequestConfigWhenSweepTilesDoNotDivide) {
  // n=12 is divisible by the request's tile=2 but by neither standard
  // sweep tile (8, 16); the request's own config must survive as a
  // candidate rather than the sweep coming back empty, which used to
  // index an empty vector and crash the daemon.
  ServerConfig cfg;
  cfg.socket_path = test_socket("tune12");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  JobRequest tune = matmul_job(12);
  tune.tile = 2;
  tune.op = Op::kAutotune;
  const Response r = client.call(tune);
  ASSERT_TRUE(r.ok()) << r.error;
  const JsonValue& result = r.doc.require("result");
  ASSERT_EQ(result.require("candidates").size(), 1u);
  EXPECT_EQ(result.require("best").get_string("variant", ""), "tiled");
  EXPECT_EQ(result.require("best").get_int("tile", 0), 2);
  server.shutdown();
}

TEST(ServeServer, FinishedSessionsAreReaped) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("reap");
  Server server(cfg);
  server.start();

  for (int i = 0; i < 8; ++i) {
    Client client(cfg.socket_path);
    const Response r = client.call(saxpy_job(1024, i));
    ASSERT_TRUE(r.ok()) << r.error;
  }
  // Each disconnect releases its session record as the reader loop exits;
  // poll briefly because that teardown races this check.
  for (int i = 0; i < 500 && server.active_sessions() > 0; ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.sessions_accepted(), 8u);
  server.shutdown();
}

TEST(ServeServer, TypedRejections) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("reject");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  // Unknown kernel -> kInvalidValue at parse time.
  JobRequest bad = saxpy_job();
  bad.kernel = "fft";
  Response r = client.call_raw(
      "{\"op\":\"launch\",\"id\":91,\"kernel\":\"fft\",\"n\":64}");
  EXPECT_EQ(r.status, Status::kInvalidValue);
  EXPECT_EQ(r.id, 91);

  // Shape-violating override -> kInvalidConfiguration before any device.
  JobRequest shape = matmul_job(64);
  shape.config.block_x = 8;  // tiled kernels need block == tile
  r = client.call(shape);
  EXPECT_EQ(r.status, Status::kInvalidConfiguration);

  // Indivisible tile -> kInvalidConfiguration.
  JobRequest odd = matmul_job(100);
  r = client.call(odd);
  EXPECT_EQ(r.status, Status::kInvalidConfiguration);

  // Malformed JSON -> kInvalidValue, and the session survives.
  r = client.call_raw("{\"op\":");
  EXPECT_EQ(r.status, Status::kInvalidValue);

  // The session still works after every rejection.
  r = client.call(saxpy_job());
  EXPECT_TRUE(r.ok()) << r.error;
  server.shutdown();
}

TEST(ServeServer, FaultJobsReturnTypedErrorsAndAreNotCached) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("fault");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  JobRequest oob = saxpy_job();
  oob.fault.kind = "oob_store";
  Response r = client.call(oob);
  EXPECT_EQ(r.status, Status::kInvalidAddress);

  // In a tiled matmul a skipped barrier manifests first as unsynchronized
  // shared-memory communication, so that is the typed error the sanitizer
  // (and therefore the service) reports.
  JobRequest barrier = matmul_job();
  barrier.fault.kind = "skip_barrier";
  r = client.call(barrier);
  EXPECT_EQ(r.status, Status::kSharedMemoryRace);

  JobRequest timeout = saxpy_job();
  timeout.fault.kind = "modeled_timeout";
  r = client.call(timeout);
  EXPECT_EQ(r.status, Status::kTimeout);

  // Nothing above may pollute the cache: the same jobs without faults
  // simulate cold.
  r = client.call(saxpy_job());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.source, "sim");
  EXPECT_EQ(server.cache_counters().stores, 1u);

  // Failed jobs reset their slot device.
  EXPECT_EQ(server.scheduler_stats().device_resets, 3u);
  server.shutdown();
}

TEST(ServeServer, SkipBarrierRefusedForBarrierFreeKernels) {
  // A skipped barrier needs a kernel that has one.  The service tells from
  // the request alone: saxpy and the naive matmuls never __syncthreads.
  ServerConfig cfg;
  cfg.socket_path = test_socket("nobarrier");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  for (JobRequest job : {saxpy_job(), matmul_job(64, "naive"),
                         matmul_job(64, "naive_unrolled")}) {
    job.fault.kind = "skip_barrier";
    const Response r = client.call(job);
    EXPECT_EQ(r.status, Status::kInvalidValue) << job.kernel << " "
                                               << job.variant;
    EXPECT_NE(r.error.find("skip_barrier"), std::string::npos) << r.error;
  }
  server.shutdown();
}

TEST(ServeServer, ModeledTimeoutFiresWithZeroSampleBlocks) {
  // A job asking for no trace samples still arms the modeled watchdog: the
  // launch traces the one block the watchdog needs.
  ServerConfig cfg;
  cfg.socket_path = test_socket("nosample");
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  JobRequest timeout = saxpy_job();
  timeout.config.sample_blocks = 0;
  timeout.fault.kind = "modeled_timeout";
  Response r = client.call(timeout);
  EXPECT_EQ(r.status, Status::kTimeout);

  // The same job without the fault runs untraced and succeeds.
  JobRequest plain = saxpy_job();
  plain.config.sample_blocks = 0;
  r = client.call(plain);
  ASSERT_TRUE(r.ok()) << r.error;
  server.shutdown();
}

TEST(ServeServer, PerSessionAdmissionControl) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("admit");
  cfg.max_inflight_per_session = 1;
  cfg.pool.gtx_slots = 1;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);

  // Pipeline several distinct jobs; with one slot and an in-flight cap of
  // one, at least one must be rejected kNotReady while another must
  // complete.  (Exact counts depend on scheduling timing.)
  const std::int64_t a = client.send(saxpy_job(1 << 16, 100));
  const std::int64_t b = client.send(saxpy_job(1 << 16, 101));
  const std::int64_t c = client.send(saxpy_job(1 << 16, 102));
  const Response ra = client.recv(a);
  const Response rb = client.recv(b);
  const Response rc = client.recv(c);
  int ok = 0, not_ready = 0;
  for (const Response* r : {&ra, &rb, &rc}) {
    if (r->ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r->status, Status::kNotReady) << r->error;
      ++not_ready;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(not_ready, 1);
  server.shutdown();
}

// The value of counter `name` in a metrics-op payload.
double scraped_counter(const Response& r, const std::string& name) {
  const JsonValue doc = JsonValue::parse(r.result_json);
  const JsonValue& metrics = doc.require("metrics");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (metrics.at(i).get_string("name", "") == name)
      return metrics.at(i).require("value").as_number();
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST(ServeServer, ResponseIsCountedBeforeItsClientReadsIt) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("count");
  cfg.obs.log_level = obs::LogLevel::kOff;
  Server server(cfg);
  server.start();
  JobRequest ping;
  ping.op = Op::kPing;
  JobRequest scrape;
  scrape.op = Op::kMetrics;

  // Several sessions alternate pings and scrapes.  Every response some
  // client has already read must be in any scrape sent afterwards, from
  // whichever session: a response is counted before its bytes go out.
  constexpr int kSessions = 6;
  constexpr int kRounds = 150;
  std::atomic<std::uint64_t> received{0};  // responses read, all sessions
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&] {
      Client client(cfg.socket_path);
      for (int i = 0; i < kRounds; ++i) {
        if (!client.call(ping).ok()) violations.fetch_add(1);
        received.fetch_add(1);
        const double floor = static_cast<double>(received.load());
        const Response r = client.call(scrape);
        received.fetch_add(1);
        if (!r.ok() ||
            scraped_counter(r, "serve.responses_total") < floor) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(received.load(), 2u * kSessions * kRounds);
  server.shutdown();
}

TEST(ServeServer, SlotDeviceIsRewoundAfterEveryJob) {
  // One gtx slot (768 MiB) and 140 distinct 6 MiB saxpy jobs: 840 MiB in
  // total, more than the device holds, so the slot must give each job's
  // memory back.
  ServerConfig cfg;
  cfg.socket_path = test_socket("rewind");
  cfg.pool.gtx_slots = 1;
  cfg.pool.ultra_slots = 0;
  cfg.pool.gts_slots = 0;
  Server server(cfg);
  server.start();
  Client client(cfg.socket_path);
  for (int j = 0; j < 140; ++j) {
    JobRequest req = saxpy_job(524288, 1000 + j);
    req.no_cache = true;
    req.config.sample_blocks = 0;
    const Response r = client.call(req);
    ASSERT_TRUE(r.ok()) << "job " << j << ": " << r.error;
  }
  const SchedulerStats ss = server.scheduler_stats();
  EXPECT_EQ(ss.jobs_ok, 140u);
  EXPECT_EQ(ss.jobs_failed, 0u);
  // Only a failed job's reset is counted.
  EXPECT_EQ(ss.device_resets, 0u);
  server.shutdown();
}

TEST(ServeServer, ShutdownOpStopsTheServer) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("stop");
  Server server(cfg);
  server.start();
  {
    Client client(cfg.socket_path);
    JobRequest req;
    req.op = Op::kShutdown;
    const Response r = client.call(req);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.doc.require("result").require("stopping").as_bool());
  }
  server.wait();  // returns because the op requested shutdown
  server.shutdown();
  // The socket is gone: connecting now fails.
  EXPECT_THROW(Client{cfg.socket_path}, Error);
}

}  // namespace
}  // namespace g80::serve
