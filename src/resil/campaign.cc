#include "resil/campaign.h"

#include <sstream>
#include <utility>

#include "apps/cp/cp.h"
#include "apps/fdtd/fdtd.h"
#include "apps/fem/fem.h"
#include "apps/h264/h264.h"
#include "apps/lbm/lbm.h"
#include "apps/matmul/matmul.h"
#include "apps/mri/mri_fhd.h"
#include "apps/mri/mri_q.h"
#include "apps/pns/pns.h"
#include "apps/rc5/rc5.h"
#include "apps/rpes/rpes.h"
#include "apps/saxpy/saxpy.h"
#include "apps/tpacf/tpacf.h"
#include "cudalite/launch.h"

namespace g80::resil {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCorruptGlobalStore:
      return "corrupt-global-store";
    case FaultKind::kSkipBarrier:
      return "skip-barrier";
    case FaultKind::kCorruptSharedStore:
      return "corrupt-shared-store";
  }
  return "unknown";
}

namespace {

using namespace apps;

LaunchOptions make_opt(const SanitizerOptions& san) {
  LaunchOptions opt;
  opt.sanitize = san;
  return opt;
}

CampaignTarget saxpy_target() {
  CampaignTarget t;
  t.name = "saxpy";
  t.global_tids = {0, 1, 63};
  auto w = SaxpyWorkload::generate(256, 11);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    auto x = dev.alloc<float>(w.x.size());
    auto y = dev.alloc<float>(w.y.size());
    auto out = dev.alloc<float>(w.x.size());
    x.copy_from_host(w.x);
    y.copy_from_host(w.y);
    launch(dev, Dim3(4), Dim3(64), make_opt(san),
           SaxpyKernel{w.a, 256}, x, y, out);
    return fnv1a_vec(out.copy_to_host());
  };
  return t;
}

CampaignTarget matmul_target() {
  CampaignTarget t;
  t.name = "matmul-tiled";
  t.has_barrier = true;
  t.has_shared_store = true;
  t.global_tids = {0, 1, 33};
  auto w = MatmulWorkload::generate(32, 12);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    const std::size_t n2 = static_cast<std::size_t>(w.n) * w.n;
    auto a = dev.alloc<float>(n2);
    auto b = dev.alloc<float>(n2);
    auto c = dev.alloc<float>(n2);
    a.copy_from_host(w.a);
    b.copy_from_host(w.b);
    launch(dev, Dim3(2, 2), Dim3(16, 16), make_opt(san),
           MatmulTiledKernel{w.n, 16, true, false}, a, b, c);
    return fnv1a_vec(c.copy_to_host());
  };
  return t;
}

CampaignTarget cp_target() {
  CampaignTarget t;
  t.name = "cp";
  t.global_tids = {0, 1, 33};
  auto w = CpWorkload::generate(32, 32, 13);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    auto atoms = dev.alloc_constant<Float4>(w.atoms.size());
    atoms.copy_from_host(w.atoms);
    auto out = dev.alloc<float>(static_cast<std::size_t>(w.grid_dim) *
                                w.grid_dim);
    launch(dev, Dim3(2, 2), Dim3(16, 16), make_opt(san),
           CpKernel{w.grid_dim, w.spacing, w.slice_z}, atoms, out);
    return fnv1a_vec(out.copy_to_host());
  };
  return t;
}

CampaignTarget fem_target() {
  CampaignTarget t;
  t.name = "fem";
  t.global_tids = {0, 1, 63};
  auto m = FemMesh::generate(128, 8, 7);
  std::vector<int> cols;
  std::vector<float> vals;
  m.to_ell(cols, vals);
  t.run = [m, cols, vals](Device& dev, const SanitizerOptions& san) {
    auto d_cols = dev.alloc<int>(cols.size());
    auto d_vals = dev.alloc<float>(vals.size());
    auto d_diag = dev.alloc<float>(m.diag.size());
    auto d_rhs = dev.alloc<float>(m.rhs.size());
    auto d_xin = dev.alloc<float>(m.rhs.size());
    auto d_xout = dev.alloc<float>(m.rhs.size());
    d_cols.copy_from_host(cols);
    d_vals.copy_from_host(vals);
    d_diag.copy_from_host(m.diag);
    d_rhs.copy_from_host(m.rhs);
    d_xin.copy_from_host(m.rhs);  // initial guess x = b
    launch(dev, Dim3(2), Dim3(64), make_opt(san),
           FemKernel{m.nodes, m.ell_width()}, d_cols, d_vals, d_diag, d_rhs,
           d_xin, d_xout);
    return fnv1a_vec(d_xout.copy_to_host());
  };
  return t;
}

CampaignTarget tpacf_target() {
  CampaignTarget t;
  t.name = "tpacf";
  t.has_barrier = true;
  t.has_shared_store = true;
  // Global output is written only by the reduction threads (tid < kTpacfBins).
  t.global_tids = {0, kTpacfBins - 1};
  auto w = TpacfWorkload::generate(128, 17);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    const int num_points = static_cast<int>(w.x.size());
    const unsigned blocks =
        static_cast<unsigned>((num_points + kTpacfBlockThreads - 1) /
                              kTpacfBlockThreads);
    auto x = dev.alloc<float>(w.x.size());
    auto y = dev.alloc<float>(w.y.size());
    auto z = dev.alloc<float>(w.z.size());
    x.copy_from_host(w.x);
    y.copy_from_host(w.y);
    z.copy_from_host(w.z);
    auto edges = dev.alloc_constant<float>(w.bin_edges.size());
    edges.copy_from_host(w.bin_edges);
    auto hist = dev.alloc<unsigned>(static_cast<std::size_t>(blocks) *
                                    kTpacfBins);
    launch(dev, Dim3(blocks), Dim3(kTpacfBlockThreads), make_opt(san),
           TpacfKernel{num_points, TpacfHistLayout::kBinMajor}, x, y, z,
           edges, hist);
    return fnv1a_vec(hist.copy_to_host());
  };
  return t;
}

CampaignTarget fdtd_target() {
  CampaignTarget t;
  t.name = "fdtd";
  t.global_tids = {0, 1, 15};
  t.global_stores_per_thread = 3;  // HxO, HyO, HzO on both branch paths
  FdtdParams p;
  p.nx = 16;
  p.ny = 4;
  p.nz = 4;
  t.run = [p](Device& dev, const SanitizerOptions& san) {
    const std::size_t cells = p.cells();
    std::vector<float> init(cells);
    for (std::size_t i = 0; i < cells; ++i)
      init[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
    auto mk = [&](float scale) {
      auto b = dev.alloc<float>(cells);
      std::vector<float> v(init);
      for (auto& e : v) e *= scale;
      b.copy_from_host(v);
      return b;
    };
    auto ex = mk(1.0f), ey = mk(0.5f), ez = mk(0.25f);
    auto hx = mk(-1.0f), hy = mk(-0.5f), hz = mk(-0.25f);
    auto hxo = dev.alloc<float>(cells);
    auto hyo = dev.alloc<float>(cells);
    auto hzo = dev.alloc<float>(cells);
    launch(dev, Dim3(1, static_cast<unsigned>(p.ny * p.nz)), Dim3(16),
           make_opt(san), FdtdHKernel{p}, ex, ey, ez, hx, hy, hz, hxo,
           hyo, hzo);
    std::uint64_t h = fnv1a_vec(hxo.copy_to_host());
    h = fnv1a_vec(hyo.copy_to_host(), h);
    return fnv1a_vec(hzo.copy_to_host(), h);
  };
  return t;
}

CampaignTarget pns_target() {
  CampaignTarget t;
  t.name = "pns";
  t.global_tids = {0, 1, 63};
  t.global_stores_per_thread = 2;  // marking-slice init stores come first
  auto net = PnsNet::generate(4);
  t.run = [net](Device& dev, const SanitizerOptions& san) {
    const int num_sims = 64, steps = 32;
    auto d_init = dev.alloc<std::int32_t>(net.initial_marking.size());
    d_init.copy_from_host(net.initial_marking);
    auto d_in_g = dev.alloc<std::int32_t>(net.in.size());
    auto d_out_g = dev.alloc<std::int32_t>(net.out.size());
    d_in_g.copy_from_host(net.in);
    d_out_g.copy_from_host(net.out);
    auto d_in_t = dev.alloc_texture<std::int32_t>(net.in.size());
    auto d_out_t = dev.alloc_texture<std::int32_t>(net.out.size());
    d_in_t.copy_from_host(net.in);
    d_out_t.copy_from_host(net.out);
    auto d_marking = dev.alloc<std::int32_t>(
        static_cast<std::size_t>(kPnsPlaces) * num_sims);
    auto d_fired = dev.alloc<std::int32_t>(num_sims);
    PnsKernel k;
    k.num_sims = num_sims;
    k.steps = steps;
    k.rng_seed = net.rng_seed;
    k.table_space = PnsTableSpace::kTexture;
    launch(dev, Dim3(1), Dim3(64), make_opt(san), k, d_init, d_in_g,
           d_out_g, d_in_t, d_out_t, d_marking, d_fired);
    std::uint64_t h = fnv1a_vec(d_marking.copy_to_host());
    return fnv1a_vec(d_fired.copy_to_host(), h);
  };
  return t;
}

CampaignTarget rc5_target() {
  CampaignTarget t;
  t.name = "rc5";
  t.global_tids = {0, 1, 63};
  t.global_stores_per_thread = 2;  // per-key partial-match flag stores
  auto w = Rc5Workload::generate(256, 9);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    auto found = dev.alloc<std::uint32_t>(1);
    const std::vector<std::uint32_t> none{w.num_keys};
    found.copy_from_host(none);
    auto partial = dev.alloc<std::uint8_t>(w.num_keys);
    Rc5Kernel k;
    k.w = w;
    k.keys_per_thread = 4;
    LaunchOptions opt = make_opt(san);
    opt.regs_per_thread = 42;
    launch(dev, Dim3(1), Dim3(64), opt, k, found, partial);
    std::uint64_t h = fnv1a_vec(found.copy_to_host());
    return fnv1a_vec(partial.copy_to_host(), h);
  };
  return t;
}

CampaignTarget rpes_target() {
  CampaignTarget t;
  t.name = "rpes";
  t.global_tids = {0, 1, 33};
  auto w = RpesWorkload::generate(32, 21);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    const int n = w.n();
    auto px = dev.alloc<float>(w.px.size());
    auto py = dev.alloc<float>(w.py.size());
    auto pz = dev.alloc<float>(w.pz.size());
    auto eta = dev.alloc<float>(w.eta.size());
    auto coef = dev.alloc<float>(w.coef.size());
    px.copy_from_host(w.px);
    py.copy_from_host(w.py);
    pz.copy_from_host(w.pz);
    eta.copy_from_host(w.eta);
    coef.copy_from_host(w.coef);
    auto quad = dev.alloc_constant<Float2>(w.quad.size());
    auto contr = dev.alloc_constant<Float2>(w.contraction.size());
    quad.copy_from_host(w.quad);
    contr.copy_from_host(w.contraction);
    auto out = dev.alloc<float>(static_cast<std::size_t>(n) * n);
    launch(dev, Dim3(2, 2), Dim3(16, 16), make_opt(san), RpesKernel{n},
           px, py, pz, eta, coef, quad, contr, out);
    return fnv1a_vec(out.copy_to_host());
  };
  return t;
}

CampaignTarget h264_target() {
  CampaignTarget t;
  t.name = "h264";
  t.has_barrier = true;
  t.has_shared_store = true;
  // The motion-estimation kernel's only global stores are thread 0's
  // post-reduction writes of the winning (SAD, candidate) pair.
  t.global_tids = {0};
  t.global_stores_per_thread = 2;
  auto w = H264Workload::generate(32, 32, 23);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    auto cur = dev.alloc<std::int32_t>(w.cur.size());
    auto ref = dev.alloc<std::int32_t>(w.ref.size());
    cur.copy_from_host(w.cur);
    ref.copy_from_host(w.ref);
    auto sad = dev.alloc<std::int32_t>(w.num_mbs());
    auto cand = dev.alloc<std::int32_t>(w.num_mbs());
    launch(dev, Dim3(static_cast<unsigned>(w.mbs_x()),
                     static_cast<unsigned>(w.mbs_y())),
           Dim3(kCandidates), make_opt(san),
           H264MeKernel{w.width, w.height, true}, cur, ref, sad, cand);
    std::uint64_t h = fnv1a_vec(sad.copy_to_host());
    return fnv1a_vec(cand.copy_to_host(), h);
  };
  return t;
}

CampaignTarget mri_q_target() {
  CampaignTarget t;
  t.name = "mri-q";
  t.global_tids = {0, 1, 63};
  t.global_stores_per_thread = 2;  // Qr, Qi
  auto w = MriWorkload::generate(128, 32, 31);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    const int nv = static_cast<int>(w.x.size());
    auto x = dev.alloc<float>(w.x.size());
    auto y = dev.alloc<float>(w.y.size());
    auto z = dev.alloc<float>(w.z.size());
    x.copy_from_host(w.x);
    y.copy_from_host(w.y);
    z.copy_from_host(w.z);
    auto k = dev.alloc_constant<Float4>(w.samples.size());
    k.copy_from_host(w.samples);
    auto qr = dev.alloc<float>(w.x.size());
    auto qi = dev.alloc<float>(w.x.size());
    launch(dev, Dim3(2), Dim3(64), make_opt(san), MriQKernel{nv, true},
           x, y, z, k, qr, qi);
    std::uint64_t h = fnv1a_vec(qr.copy_to_host());
    return fnv1a_vec(qi.copy_to_host(), h);
  };
  return t;
}

CampaignTarget mri_fhd_target() {
  CampaignTarget t;
  t.name = "mri-fhd";
  t.global_tids = {0, 1, 63};
  t.global_stores_per_thread = 2;  // Fr, Fi
  auto w = MriWorkload::generate(128, 32, 33);
  t.run = [w](Device& dev, const SanitizerOptions& san) {
    const int nv = static_cast<int>(w.x.size());
    auto x = dev.alloc<float>(w.x.size());
    auto y = dev.alloc<float>(w.y.size());
    auto z = dev.alloc<float>(w.z.size());
    x.copy_from_host(w.x);
    y.copy_from_host(w.y);
    z.copy_from_host(w.z);
    auto k = dev.alloc_constant<Float4>(w.samples.size());
    k.copy_from_host(w.samples);
    auto rho = dev.alloc_constant<Float2>(w.rho.size());
    rho.copy_from_host(w.rho);
    auto fr = dev.alloc<float>(w.x.size());
    auto fi = dev.alloc<float>(w.x.size());
    launch(dev, Dim3(2), Dim3(64), make_opt(san), MriFhdKernel{nv}, x,
           y, z, k, rho, fr, fi);
    std::uint64_t h = fnv1a_vec(fr.copy_to_host());
    return fnv1a_vec(fi.copy_to_host(), h);
  };
  return t;
}

CampaignTarget lbm_target() {
  CampaignTarget t;
  t.name = "lbm";
  t.has_barrier = true;       // kSoAStaged's staging barrier
  t.has_shared_store = true;
  t.global_tids = {0, 1, 15};
  t.global_stores_per_thread = 2;  // 19 distribution stores per thread
  LbmParams p;
  p.nx = 16;
  p.ny = 4;
  p.nz = 4;
  auto w = LbmWorkload::generate(p);
  t.run = [p, w](Device& dev, const SanitizerOptions& san) {
    auto src = dev.alloc<float>(w.f0.size());
    auto dst = dev.alloc<float>(w.f0.size());
    src.copy_from_host(w.f0);
    LaunchOptions opt = make_opt(san);
    opt.regs_per_thread = 32;
    launch(dev, Dim3(1, static_cast<unsigned>(p.ny * p.nz)), Dim3(16), opt,
           LbmKernel{p, LbmLayout::kSoAStaged}, src, dst);
    return fnv1a_vec(dst.copy_to_host());
  };
  return t;
}

// Runs one fault case end to end: clean digest, faulted launch (expected to
// throw with a sticky device Status), reset, clean relaunch, digest compare.
CaseResult run_case(const CampaignTarget& t, FaultKind kind, int tid,
                    int index, std::int64_t block) {
  CaseResult r;
  r.target = t.name;
  r.kind = kind;
  r.tid = tid;
  r.index = index;
  r.block = block;

  Device dev;
  const std::uint64_t clean = t.run(dev, SanitizerOptions{});

  SanitizerOptions faulted;
  faulted.enabled = true;
  faulted.abort_on_error = true;
  faulted.fault.block = block;
  switch (kind) {
    case FaultKind::kCorruptGlobalStore:
      faulted.fault.corrupt_global_tid = tid;
      faulted.fault.corrupt_global_index = index;
      break;
    case FaultKind::kSkipBarrier:
      faulted.fault.skip_barrier_tid = tid;
      faulted.fault.skip_barrier_index = index;
      break;
    case FaultKind::kCorruptSharedStore:
      faulted.fault.corrupt_store_tid = tid;
      faulted.fault.corrupt_store_index = index;
      break;
  }

  bool threw = false;
  try {
    t.run(dev, faulted);
  } catch (const StatusError& e) {
    threw = true;
    r.status = e.status();
  } catch (const Error&) {
    threw = true;
    r.status = Status::kLaunchFailure;
  }
  r.detected = threw && dev.peek_last_error() != Status::kSuccess;

  dev.reset();
  r.recovered = dev.peek_last_error() == Status::kSuccess &&
                dev.bytes_allocated() == 0;

  const std::uint64_t again = t.run(dev, SanitizerOptions{});
  r.identical = again == clean;
  return r;
}

}  // namespace

int CampaignReport::detected() const {
  int n = 0;
  for (const auto& c : cases) n += c.detected ? 1 : 0;
  return n;
}

int CampaignReport::recovered() const {
  int n = 0;
  for (const auto& c : cases) n += c.recovered ? 1 : 0;
  return n;
}

int CampaignReport::identical() const {
  int n = 0;
  for (const auto& c : cases) n += c.identical ? 1 : 0;
  return n;
}

bool CampaignReport::all_passed() const {
  for (const auto& c : cases)
    if (!c.passed()) return false;
  return !cases.empty();
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  for (const auto& c : cases) {
    if (c.passed()) continue;
    os << "FAIL " << c.target << " " << fault_kind_name(c.kind) << " tid="
       << c.tid << " index=" << c.index << " block=" << c.block
       << " detected=" << c.detected << " (raised " << status_name(c.status)
       << ") recovered=" << c.recovered << " identical=" << c.identical
       << "\n";
  }
  os << "campaign: " << total() << " cases, " << detected() << " detected, "
     << recovered() << " recovered, " << identical()
     << " bit-identical relaunches";
  return os.str();
}

std::vector<CampaignTarget> default_targets() {
  std::vector<CampaignTarget> t;
  t.push_back(saxpy_target());
  t.push_back(matmul_target());
  t.push_back(cp_target());
  t.push_back(fem_target());
  t.push_back(tpacf_target());
  t.push_back(fdtd_target());
  t.push_back(pns_target());
  t.push_back(rc5_target());
  t.push_back(rpes_target());
  t.push_back(h264_target());
  t.push_back(mri_q_target());
  t.push_back(mri_fhd_target());
  t.push_back(lbm_target());
  return t;
}

CampaignReport run_campaign(const std::vector<CampaignTarget>& targets,
                            const CampaignConfig& cfg) {
  CampaignReport report;
  const std::vector<std::int64_t> all_blocks = cfg.smoke
                                                   ? std::vector<std::int64_t>{0}
                                                   : std::vector<std::int64_t>{0, -1};
  for (const auto& t : targets) {
    // Global-store corruption: applicable to every application.
    const std::vector<int> tids =
        cfg.smoke ? std::vector<int>{t.global_tids.front()} : t.global_tids;
    const int stores = cfg.smoke ? 1 : t.global_stores_per_thread;
    for (int tid : tids) {
      for (int index = 0; index < stores; ++index) {
        for (std::int64_t block : all_blocks) {
          report.cases.push_back(run_case(
              t, FaultKind::kCorruptGlobalStore, tid, index, block));
        }
      }
    }
    // Barrier skip: any thread of a barrier kernel (the release snapshot
    // catches both run-ahead and exited-while-waiting divergence).
    if (t.has_barrier) {
      const std::vector<int> btids = cfg.smoke ? std::vector<int>{0}
                                               : std::vector<int>{0, 1};
      for (int tid : btids) {
        for (std::int64_t block : all_blocks) {
          report.cases.push_back(
              run_case(t, FaultKind::kSkipBarrier, tid, 0, block));
        }
      }
    }
    // Shared-store corruption: thread 0's first shared store redirected one
    // word up, colliding with thread 1's same-epoch slot in these kernels.
    if (t.has_shared_store) {
      for (std::int64_t block : all_blocks) {
        report.cases.push_back(
            run_case(t, FaultKind::kCorruptSharedStore, 0, 0, block));
        if (cfg.smoke) break;
      }
    }
  }
  return report;
}

}  // namespace g80::resil
