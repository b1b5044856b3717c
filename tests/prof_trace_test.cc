// g80prof Chrome-trace exporter and g80rt runtime-profiling integration:
// the emitted JSON must carry the track metadata and slices chrome://tracing
// needs, and a profiled runtime session must record every launch and
// transfer on every stream without changing functional results.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "prof/chrome_trace.h"
#include "prof/profiler.h"
#include "rt/runtime.h"

namespace g80 {
namespace {

int count_occurrences(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

struct ScaleKernel {
  // Out-of-place: sampled blocks execute in both the trace and functional
  // passes, so kernels must be idempotent at block granularity.
  float factor = 1.0f;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(i, ctx.mul(In.ld(i), factor));
  }
};

// ---- Exporter over a hand-built timeline ------------------------------------------

TEST(ChromeTrace, EmptyTimelineIsStillAValidDocument) {
  const Timeline tl;
  const std::string json = prof::chrome_trace_json(tl);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Track metadata is emitted even with no spans, so an empty session still
  // loads with named tracks.
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, SpansBecomeCompleteEventsOnEngineTracks) {
  Timeline tl;
  tl.schedule(1, TimelineEngine::kCopy, 2e-3, "h2d 1024 B");
  tl.schedule(1, TimelineEngine::kCompute, 5e-3, "kernel 64 blocks");
  tl.schedule(2, TimelineEngine::kCopy, 1e-3, "d2h 512 B");
  const std::string json = prof::chrome_trace_json(tl);

  // One complete ("ph":"X") event per span.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3);
  EXPECT_NE(json.find("\"compute engine\""), std::string::npos);
  EXPECT_NE(json.find("\"copy engine (DMA)\""), std::string::npos);
  EXPECT_NE(json.find("kernel 64 blocks"), std::string::npos);
  // Durations are microseconds in trace-event format: 5 ms -> 5000 us.
  EXPECT_NE(json.find("\"dur\":5000"), std::string::npos);
  // The issuing stream is preserved on each slice.
  EXPECT_NE(json.find("\"stream\":1"), std::string::npos);
  EXPECT_NE(json.find("\"stream\":2"), std::string::npos);
}

TEST(ChromeTrace, BlockSpansNestInsideTheKernelSlice) {
  Timeline tl;
  std::vector<TimelineBlockSpan> waves;
  waves.push_back({0, 48, 0.0, 1e-3});
  waves.push_back({48, 96, 1e-3, 2e-3});
  tl.schedule(1, TimelineEngine::kCompute, 2e-3, "kernel 96 blocks",
              std::move(waves));
  const std::string json = prof::chrome_trace_json(tl);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3);  // kernel + 2 waves
  EXPECT_NE(json.find("blocks [0,48)"), std::string::npos);
  EXPECT_NE(json.find("blocks [48,96)"), std::string::npos);

  // And they can be suppressed.
  prof::ChromeTraceOptions opt;
  opt.block_spans = false;
  const std::string flat = prof::chrome_trace_json(tl, opt);
  EXPECT_EQ(count_occurrences(flat, "\"ph\":\"X\""), 1);
  EXPECT_EQ(flat.find("blocks [0,48)"), std::string::npos);
}

TEST(ChromeTrace, LabelsAreJsonEscaped) {
  Timeline tl;
  tl.schedule(1, TimelineEngine::kCompute, 1e-3, "kernel \"quoted\"\n");
  const std::string json = prof::chrome_trace_json(tl);
  EXPECT_NE(json.find("kernel \\\"quoted\\\"\\n"), std::string::npos);
}

// ---- Runtime integration ----------------------------------------------------------

TEST(RuntimeProfiling, RecordsLaunchesAndTransfersAcrossStreams) {
  Device dev;
  prof::Profiler p;
  rt::RuntimeOptions ropt;
  ropt.profiler = &p;
  rt::Runtime r(dev, ropt);
  ASSERT_EQ(r.profiler(), &p);

  const int n = 1 << 12;
  std::vector<float> h0(n, 1.0f), h1(n, 2.0f);
  auto d0 = dev.alloc<float>(n);
  auto d1 = dev.alloc<float>(n);
  auto o0 = dev.alloc<float>(n);
  auto o1 = dev.alloc<float>(n);

  rt::Stream s0 = r.stream_create();
  rt::Stream s1 = r.stream_create();
  LaunchOptions opt;
  opt.kernel_name = "scale2";
  r.memcpy_h2d_async(s0, d0, h0);
  r.launch_async(s0, Dim3(n / 256), Dim3(256), opt, nullptr,
                 ScaleKernel{2.0f}, d0, o0);
  opt.kernel_name = "scale3";
  r.memcpy_h2d_async(s1, d1, h1);
  r.launch_async(s1, Dim3(n / 256), Dim3(256), opt, nullptr,
                 ScaleKernel{3.0f}, d1, o1);
  std::vector<float> out0, out1;
  r.memcpy_d2h_async(s0, out0, o0);
  r.memcpy_d2h_async(s1, out1, o1);
  r.device_synchronize();

  // Functional results are unchanged by profiling.
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(out0[static_cast<std::size_t>(i)], 2.0f);
    ASSERT_EQ(out1[static_cast<std::size_t>(i)], 6.0f);
  }

  // Both launches were recorded under their own names.  The two streams run
  // concurrently, so the profiler may see them in either completion order.
  EXPECT_EQ(p.total_launches(), 2u);
  auto ks = p.kernels();
  ASSERT_EQ(ks.size(), 2u);
  std::sort(ks.begin(), ks.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  EXPECT_EQ(ks[0].name, "scale2");
  EXPECT_EQ(ks[1].name, "scale3");
  EXPECT_EQ(ks[0].counters.blocks_total, static_cast<std::uint64_t>(n / 256));

  // All four copies landed in the transfer totals.
  const auto tx = p.transfers();
  EXPECT_EQ(tx.h2d_count, 2u);
  EXPECT_EQ(tx.d2h_count, 2u);
  EXPECT_EQ(tx.h2d_bytes, 2u * n * sizeof(float));
  EXPECT_EQ(tx.d2h_bytes, 2u * n * sizeof(float));
  EXPECT_GT(tx.modeled_seconds, 0.0);

  r.stream_destroy(s0);
  r.stream_destroy(s1);
}

TEST(RuntimeProfiling, ProfiledTimelineExportsWithDistinctTracks) {
  Device dev;
  prof::Profiler p;
  rt::RuntimeOptions ropt;
  ropt.profiler = &p;
  rt::Runtime r(dev, ropt);

  // 64 blocks at 3 blocks/SM x 16 SMs = 48 concurrent -> 2 waves, so the
  // kernel slice carries nested block spans.
  const int n = 64 * 256;
  std::vector<float> h(n, 1.0f);
  auto d = dev.alloc<float>(n);
  auto o = dev.alloc<float>(n);
  rt::Stream s = r.stream_create();
  LaunchOptions opt;
  opt.kernel_name = "scale2";
  r.memcpy_h2d_async(s, d, h);
  r.launch_async(s, Dim3(64), Dim3(256), opt, nullptr, ScaleKernel{2.0f}, d,
                 o);
  r.device_synchronize();

  const std::string json = prof::chrome_trace_json(r.timeline_snapshot());
  EXPECT_NE(json.find("\"compute engine\""), std::string::npos);
  EXPECT_NE(json.find("\"copy engine (DMA)\""), std::string::npos);
  EXPECT_NE(json.find("scale2"), std::string::npos);
  EXPECT_NE(json.find("blocks [0,"), std::string::npos);
  r.stream_destroy(s);
}

TEST(RuntimeProfiling, NoProfilerMeansNoBlockSpans) {
  Device dev;
  rt::Runtime r(dev);
  ASSERT_EQ(r.profiler(), nullptr);
  const int n = 64 * 256;
  auto d = dev.alloc<float>(n);
  auto o = dev.alloc<float>(n);
  rt::Stream s = r.stream_create();
  LaunchOptions opt;
  r.launch_async(s, Dim3(64), Dim3(256), opt, nullptr, ScaleKernel{2.0f}, d,
                 o);
  r.device_synchronize();
  const std::string json = prof::chrome_trace_json(r.timeline_snapshot());
  EXPECT_EQ(json.find("blocks [0,"), std::string::npos);
  r.stream_destroy(s);
}

}  // namespace
}  // namespace g80
