// Launches spanning the trace recorder's regimes, shared by the golden
// digest tests in trace_batch_test.cc.  The digests include each site's
// (basename, line), so moving a kernel line in this file changes them:
// re-pin with a stated reason.
#pragma once

#include <vector>

#include "apps/matmul/matmul.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"
#include "exec/worker_pool.h"
#include "prof/profiler.h"
#include "scope/session.h"

namespace g80 {

// Fully converged multi-space kernel: coalesced global loads, a stride-2
// shared store (bank conflicts), a divergence-free constant broadcast, a
// texture stream, and a barrier.  Every warp stays clean in the arena.
struct ConvergedMultiSpaceKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in,
                  const ConstantBuffer<float>& c, const Texture1D<float>& t,
                  DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto C = ctx.constant(c);
    auto T = ctx.texture(t);
    auto S = ctx.template shared<float>(2 * 64);
    const int tid = static_cast<int>(ctx.thread_idx().x);
    const int i = ctx.global_thread_x();
    S.st(static_cast<std::size_t>(tid) * 2, In.ld(i));
    ctx.sync();
    const float v = S.ld(static_cast<std::size_t>(tid) * 2);
    Out.st(i, ctx.mad(v, C.ld(3), T.fetch(static_cast<std::size_t>(i) % t.size())));
  }
};

// Lane-dependent trip count: lane i performs (i % 32) + 1 global stores at
// one site and nothing after them, so each lane's stream is a prefix of the
// longest lane's and positional matching stays clean (no regrouping).
struct DivergentTripCountKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& out) const {
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v = 0;
    for (int k = 0; k <= i % 32; ++k) {
      v = ctx.add(v, 1.0f);
      O.st(i, v);
    }
  }
};

// Partially converged: half-warps branch to arms with DIFFERENT recorder
// sites (distinct source lines), then rejoin for a common coalesced store.
// The arm accesses diverge positionally; the rejoin store still matches on
// lanes that took the first arm.
struct HalfWarpArmsKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& a, DeviceBuffer<float>& b,
                  DeviceBuffer<float>& out) const {
    auto A = ctx.global(a);
    auto B = ctx.global(b);
    auto O = ctx.global(out);
    const int i = ctx.global_thread_x();
    float v;
    if (ctx.branch(i % 32 < 16)) {
      v = A.ld(i);
    } else {
      v = ctx.mul(B.ld(static_cast<std::size_t>(i) * 2 % b.size()), 2.0f);
    }
    O.st(i, v);
  }
};

// Uniform-looking kernel with mixed access sizes at distinct sites plus a
// scattered (uncoalesced) store — exercises the coalescing analyzer's
// serialized path through the SoA rows.
struct ScatteredStoreKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in, DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    const int i = ctx.global_thread_x();
    Out.st(static_cast<std::size_t>(i) * 2 % out.size(), In.ld(i));
  }
};

// Barrier-heavy kernel for the sanitizer-observed regime: the sanitize pass
// attaches a BarrierObserver, and with g80check enabled the trace pass's
// recording must still be invisible.
struct StagedReduceKernel {
  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& in, DeviceBuffer<float>& out) const {
    auto In = ctx.global(in);
    auto Out = ctx.global(out);
    auto S = ctx.template shared<float>(64);
    const int t = static_cast<int>(ctx.thread_idx().x);
    const int base = static_cast<int>(ctx.block_idx().x * ctx.block_dim().x);
    S.st(t, In.ld(base + t));
    ctx.sync();
    for (int stride = 32; stride > 0; stride /= 2) {
      if (ctx.branch(t < stride)) S.st(t, ctx.add(S.ld(t), S.ld(t + stride)));
      ctx.sync();
    }
    if (ctx.branch(t == 0)) Out.st(ctx.block_idx().x, S.ld(0));
  }
};

// What one launch's trace pass feeds downstream.
struct TraceObserved {
  LaunchStats stats;
  std::vector<scope::SmSeries> sms;  // empty unless recorded into a session
};

inline TraceObserved run_converged_multi_space() {
  Device dev;
  const int n = 256;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  auto c = dev.alloc_constant<float>(16);
  auto t = dev.alloc_texture<float>(64);
  std::vector<float> host(n);
  for (int i = 0; i < n; ++i) host[i] = 0.5f * static_cast<float>(i);
  in.copy_from_host(host);
  std::vector<float> chost(16, 3.0f), thost(64, 0.25f);
  c.copy_from_host(chost);
  t.copy_from_host(thost);

  prof::Profiler p;
  LaunchOptions opt;
  TraceObserved o;
  o.stats = launch(dev, Dim3(n / 64), Dim3(64), opt,
                   ConvergedMultiSpaceKernel{}, in, c, t, out);
  p.record_launch("multi_space", dev.spec(), o.stats);
  return o;
}

inline TraceObserved run_divergent_trip_count() {
  Device dev;
  const int n = 128;
  auto out = dev.alloc<float>(n);
  LaunchOptions opt;
  TraceObserved o;
  o.stats = launch(dev, Dim3(2), Dim3(64), opt, DivergentTripCountKernel{}, out);
  return o;
}

inline TraceObserved run_half_warp_arms() {
  Device dev;
  const int n = 256;
  auto a = dev.alloc<float>(n);
  auto b = dev.alloc<float>(2 * n);
  auto out = dev.alloc<float>(n);
  std::vector<float> ha(n, 1.5f), hb(2 * n, 2.5f);
  a.copy_from_host(ha);
  b.copy_from_host(hb);
  LaunchOptions opt;
  TraceObserved o;
  o.stats = launch(dev, Dim3(2), Dim3(128), opt, HalfWarpArmsKernel{}, a, b, out);
  return o;
}

inline TraceObserved run_scattered_store() {
  Device dev;
  const int n = 512;
  auto in = dev.alloc<float>(n);
  auto out = dev.alloc<float>(n);
  std::vector<float> host(n, 1.0f);
  in.copy_from_host(host);
  LaunchOptions opt;
  TraceObserved o;
  o.stats = launch(dev, Dim3(n / 64), Dim3(64), opt, ScatteredStoreKernel{},
                   in, out);
  return o;
}

inline TraceObserved run_sanitizer_observed() {
  Device dev;
  const int blocks = 4;
  auto in = dev.alloc<float>(blocks * 64);
  auto out = dev.alloc<float>(blocks);
  std::vector<float> host(blocks * 64, 1.0f);
  in.copy_from_host(host);
  LaunchOptions opt;
  opt.sanitize.enabled = true;
  opt.sanitize.abort_on_error = false;
  TraceObserved o;
  o.stats = launch(dev, Dim3(blocks), Dim3(64), opt, StagedReduceKernel{},
                   in, out);
  return o;
}

// The §4 matmul recorded into a scope session: bucket series are derived
// from the trace pass, so they are the most sensitive downstream consumer.
inline TraceObserved run_scope_matmul() {
  Device dev;
  const int n = 128, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 7);
  auto a = dev.alloc<float>(wl.a.size());
  auto b = dev.alloc<float>(wl.b.size());
  auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  a.copy_from_host(wl.a);
  b.copy_from_host(wl.b);
  scope::Session session;
  prof::Profiler p;
  LaunchOptions opt;
  opt.regs_per_thread = 9;
  TraceObserved o;
  o.stats = launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                   apps::MatmulTiledKernel{n, tile, /*unrolled=*/true}, a, b, c);
  p.record_launch("matmul", dev.spec(), o.stats);
  session.record_launch("matmul", dev.spec(), o.stats);
  o.sms = session.launches().front().scope.sms;
  return o;
}

// A 16-block trace sample on `workers` pool slots: each slot records into
// its own arena, and per-block traces merge in sample order.
inline TraceObserved run_pooled_matmul(int workers) {
  Device dev;
  const int n = 128, tile = 16;
  const auto wl = apps::MatmulWorkload::generate(n, 11);
  auto a = dev.alloc<float>(wl.a.size());
  auto b = dev.alloc<float>(wl.b.size());
  auto c = dev.alloc<float>(static_cast<std::size_t>(n) * n);
  a.copy_from_host(wl.a);
  b.copy_from_host(wl.b);
  WorkerPool pool(workers);
  LaunchOptions opt;
  opt.regs_per_thread = 9;
  opt.pool = workers > 1 ? &pool : nullptr;
  opt.sample_blocks = 16;
  TraceObserved o;
  o.stats = launch(dev, Dim3(n / tile, n / tile), Dim3(tile, tile), opt,
                   apps::MatmulTiledKernel{n, tile, /*unrolled=*/true}, a, b, c);
  return o;
}

}  // namespace g80
