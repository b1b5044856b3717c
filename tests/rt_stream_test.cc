// g80rt stream/event semantics: FIFO ordering within a stream, independence
// across streams, modeled event timestamps, copy/compute overlap in the
// timeline, and the runtime-misuse paths of the structured-error model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/report.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "rt/runtime.h"
#include "timing/timeline.h"

namespace g80 {
namespace {

// Out-of-place scale: sampled blocks run in both the trace and functional
// passes, so in-place updates would double-apply.
struct ScaleKernel {
  float scale = 2.0f;
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  DeviceBuffer<float>& out) const {
    auto I = ctx.global(in);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    O.st(i, ctx.mad(I.ld(i), scale, 0.0f));
  }
};

struct OobStoreKernel {  // every thread stores past the end
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    O.st(O.size() + ctx.global_thread_x(), 0.0f);
  }
};

// Catch a StatusError from `fn`, returning its code and message.
template <class Fn>
std::pair<Status, std::string> catch_status(Fn&& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return {e.status(), e.what()};
  }
  return {Status::kSuccess, "no error raised"};
}

// ---- FIFO within a stream -----------------------------------------------------

TEST(RtStream, HostFuncsRunInFifoOrder) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  // `order` is written only by the stream thread and read after the sync.
  std::vector<int> order;
  for (int k = 0; k < 16; ++k) {
    r.host_func(s, [&order, k] { order.push_back(k); });
  }
  r.stream_synchronize(s);
  std::vector<int> want(16);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(RtStream, H2dKernelD2hPipelineProducesResults) {
  Device dev;
  rt::Runtime r(dev, {.workers = 4});
  auto s = r.stream_create();
  const int n = 256;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  std::vector<float> host(n);
  std::iota(host.begin(), host.end(), 0.0f);

  LaunchStats stats;
  r.memcpy_h2d_async(s, in, host);
  r.launch_async(s, Dim3(4), Dim3(64), LaunchOptions{}, &stats,
                 ScaleKernel{3.0f}, in, out);
  std::vector<float> back;
  r.memcpy_d2h_async(s, back, out);
  r.stream_synchronize(s);

  ASSERT_EQ(back.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(back[i], 3.0f * i) << i;
  EXPECT_EQ(stats.grid.x, 4u);  // stats_out filled after completion
  EXPECT_EQ(dev.ledger().transfer_count(), 2u);
}

// ---- Independence across streams ----------------------------------------------

TEST(RtStream, BlockedStreamDoesNotStallOthers) {
  Device dev;
  rt::Runtime r(dev);
  auto a = r.stream_create();
  auto b = r.stream_create();

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> a_done{false};
  r.host_func(a, [opened] { opened.wait(); });
  r.host_func(a, [&a_done] { a_done = true; });

  std::atomic<int> b_count{0};
  for (int k = 0; k < 4; ++k) r.host_func(b, [&b_count] { ++b_count; });
  r.stream_synchronize(b);  // must complete while `a` is still blocked

  EXPECT_EQ(b_count.load(), 4);
  EXPECT_FALSE(a_done.load());
  EXPECT_FALSE(r.stream_query(a));
  EXPECT_TRUE(r.stream_query(b));

  gate.set_value();
  r.stream_synchronize(a);
  EXPECT_TRUE(a_done.load());
}

// ---- Events -------------------------------------------------------------------

TEST(RtEvent, ElapsedTimesArePositiveAndAdditive) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  const int n = 128;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  in.fill(1.0f);

  auto e0 = r.event_create();
  auto e1 = r.event_create();
  auto e2 = r.event_create();
  r.event_record(s, e0);
  r.launch_async(s, Dim3(2), Dim3(64), LaunchOptions{}, nullptr, ScaleKernel{},
                 in, out);
  r.event_record(s, e1);
  r.launch_async(s, Dim3(2), Dim3(64), LaunchOptions{}, nullptr, ScaleKernel{},
                 in, out);
  r.event_record(s, e2);
  r.stream_synchronize(s);

  const double d01 = r.event_elapsed_seconds(e0, e1);
  const double d12 = r.event_elapsed_seconds(e1, e2);
  const double d02 = r.event_elapsed_seconds(e0, e2);
  // Each interval spans one kernel, so at least the 15 us launch overhead.
  EXPECT_GT(d01, 0.0);
  EXPECT_GT(d12, 0.0);
  EXPECT_GE(d02, d01);  // monotone along the stream
  EXPECT_DOUBLE_EQ(d02, d01 + d12);
}

TEST(RtEvent, QueryTracksCompletion) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  auto e = r.event_create();
  EXPECT_TRUE(r.event_query(e));  // never recorded: trivially complete

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  r.host_func(s, [opened] { opened.wait(); });
  r.event_record(s, e);
  EXPECT_FALSE(r.event_query(e));

  gate.set_value();
  r.stream_synchronize(s);
  EXPECT_TRUE(r.event_query(e));
}

// ---- Copy/compute overlap in the modeled timeline -----------------------------

TEST(RtTimeline, TwoStreamsOverlapCopyAndCompute) {
  Device dev;
  rt::Runtime r(dev);
  auto s0 = r.stream_create();
  auto s1 = r.stream_create();
  const int n = 1 << 18;  // 1 MB per buffer: copies take modeled time
  auto in0 = dev.alloc<float>(n);
  auto out0 = dev.alloc<float>(n);
  auto in1 = dev.alloc<float>(n);
  auto out1 = dev.alloc<float>(n);
  std::vector<float> host(n, 1.0f);

  r.memcpy_h2d_async(s0, in0, host);
  r.launch_async(s0, Dim3(n / 256), Dim3(256), LaunchOptions{}, nullptr,
                 ScaleKernel{}, in0, out0);
  r.memcpy_h2d_async(s1, in1, host);
  r.launch_async(s1, Dim3(n / 256), Dim3(256), LaunchOptions{}, nullptr,
                 ScaleKernel{}, in1, out1);

  const double total = r.modeled_total_seconds();
  const double serial = r.modeled_serialized_seconds();
  // Stream 1's copy runs under stream 0's kernel (one copy engine, one
  // compute engine), so the makespan must be strictly shorter than the
  // fully-serialized sum — the paper's motivation for streams.
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, serial);

  const Timeline tl = r.timeline_snapshot();
  ASSERT_EQ(tl.spans().size(), 4u);
  EXPECT_DOUBLE_EQ(tl.engine_busy_seconds(TimelineEngine::kCompute) +
                       tl.engine_busy_seconds(TimelineEngine::kCopy),
                   serial);
  const std::string rep = timeline_report(tl);
  EXPECT_NE(rep.find("compute engine"), std::string::npos);
  EXPECT_NE(rep.find("overlap"), std::string::npos);
}

TEST(RtTimeline, ModeledScheduleIsDeterministic) {
  // Same op sequence in two runtimes → bit-identical modeled makespan, no
  // matter how the OS interleaved the stream threads.
  auto run_once = [] {
    Device dev;
    rt::Runtime r(dev);
    auto s0 = r.stream_create();
    auto s1 = r.stream_create();
    const int n = 4096;
    auto in0 = dev.alloc<float>(n);
    auto out0 = dev.alloc<float>(n);
    auto in1 = dev.alloc<float>(n);
    auto out1 = dev.alloc<float>(n);
    std::vector<float> host(n, 2.0f);
    r.memcpy_h2d_async(s0, in0, host);
    r.memcpy_h2d_async(s1, in1, host);
    r.launch_async(s0, Dim3(n / 128), Dim3(128), LaunchOptions{}, nullptr,
                   ScaleKernel{}, in0, out0);
    r.launch_async(s1, Dim3(n / 128), Dim3(128), LaunchOptions{}, nullptr,
                   ScaleKernel{}, in1, out1);
    r.memcpy_d2h_async(s0, host, out0);
    return r.modeled_total_seconds();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- Runtime misuse through the structured-error model ------------------------

TEST(RtStatus, OpOnDestroyedStreamIsInvalidResourceHandle) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  r.stream_destroy(s);
  const auto [code, msg] =
      catch_status([&] { r.host_func(s, [] {}); });
  EXPECT_EQ(code, Status::kInvalidResourceHandle);
  EXPECT_NE(msg.find("destroyed"), std::string::npos);
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidResourceHandle);
  EXPECT_EQ(dev.peek_last_error(), Status::kSuccess);  // get cleared it
}

TEST(RtStatus, EventAcrossRuntimesIsInvalidDevice) {
  Device dev_a, dev_b;
  rt::Runtime ra(dev_a), rb(dev_b);
  auto sb = rb.stream_create();
  auto ea = ra.event_create();
  const auto [code, msg] = catch_status([&] { rb.event_record(sb, ea); });
  EXPECT_EQ(code, Status::kInvalidDevice);
  EXPECT_EQ(dev_b.get_last_error(), Status::kInvalidDevice);
  EXPECT_EQ(dev_a.peek_last_error(), Status::kSuccess);
}

TEST(RtStatus, PrematureElapsedIsNotReady) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  auto e0 = r.event_create();
  auto e1 = r.event_create();

  {  // never recorded
    const auto [code, msg] =
        catch_status([&] { r.event_elapsed_seconds(e0, e1); });
    EXPECT_EQ(code, Status::kNotReady);
  }

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  r.event_record(s, e0);
  r.host_func(s, [opened] { opened.wait(); });
  r.event_record(s, e1);
  {  // recorded but not complete
    const auto [code, msg] =
        catch_status([&] { r.event_elapsed_seconds(e0, e1); });
    EXPECT_EQ(code, Status::kNotReady);
    EXPECT_EQ(dev.get_last_error(), Status::kNotReady);
  }

  gate.set_value();
  r.stream_synchronize(s);
  EXPECT_DOUBLE_EQ(r.event_elapsed_seconds(e0, e1), 0.0);  // host ops: no time
}

TEST(RtStatus, SynchronizeInsideCallbackIsNotPermitted) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  r.host_func(s, [&] { r.stream_synchronize(s); });  // would self-deadlock
  const auto [code, msg] = catch_status([&] { r.stream_synchronize(s); });
  EXPECT_EQ(code, Status::kNotPermitted);
  EXPECT_NE(msg.find("callback"), std::string::npos);
  EXPECT_EQ(dev.get_last_error(), Status::kNotPermitted);
}

TEST(RtStatus, AsyncFailureIsStickyAndSkipsLaterOps) {
  Device dev;
  rt::Runtime r(dev);
  auto s = r.stream_create();
  auto out = dev.alloc<float>(8);
  std::atomic<bool> later_ran{false};
  r.launch_async(s, Dim3(1), Dim3(32), LaunchOptions{}, nullptr,
                 OobStoreKernel{}, out);
  r.host_func(s, [&later_ran] { later_ran = true; });

  const auto [code, msg] = catch_status([&] { r.stream_synchronize(s); });
  EXPECT_EQ(code, Status::kInvalidAddress);
  EXPECT_FALSE(later_ran.load());  // drained without executing, CUDA-style

  // Sticky: the same failure resurfaces on the next synchronize, and the
  // device still remembers the Status.
  const auto [again, msg2] = catch_status([&] { r.stream_synchronize(s); });
  EXPECT_EQ(again, Status::kInvalidAddress);
  EXPECT_EQ(dev.get_last_error(), Status::kInvalidAddress);

  // An independent stream on the same runtime is unaffected.
  auto s2 = r.stream_create();
  std::atomic<bool> ok{false};
  r.host_func(s2, [&ok] { ok = true; });
  r.stream_synchronize(s2);
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace g80
