#include "apps/lbm/lbm.h"

#include <cmath>

#include "common/error.h"
#include "common/measure.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

// D3Q19: rest, 6 faces, 12 edges.
const int kLbmEx[kLbmQ] = {0, 1, -1, 0, 0,  0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0,  0,  0,  0};
const int kLbmEy[kLbmQ] = {0, 0, 0,  1, -1, 0, 0, 1, -1, -1, 1, 0, 0,  0, 0,  1, -1, 1,  -1};
const int kLbmEz[kLbmQ] = {0, 0, 0,  0, 0,  1, -1, 0, 0,  0, 0,  1, -1, -1, 1, 1, -1, -1, 1};
namespace {
constexpr int make_xslot(int q) {
  int slot = 0;
  for (int i = 0; i < q; ++i) slot += kLbmEx[i] != 0 ? 1 : 0;
  return slot;
}
}  // namespace

const int kLbmXSlot[kLbmQ] = {
    -1, make_xslot(1),  make_xslot(2),  -1, -1, -1, -1,
    make_xslot(7),  make_xslot(8),  make_xslot(9),  make_xslot(10),
    make_xslot(11), make_xslot(12), make_xslot(13), make_xslot(14),
    -1, -1, -1, -1};

const float kLbmW[kLbmQ] = {
    1.0f / 3,  1.0f / 18, 1.0f / 18, 1.0f / 18, 1.0f / 18, 1.0f / 18,
    1.0f / 18, 1.0f / 36, 1.0f / 36, 1.0f / 36, 1.0f / 36, 1.0f / 36,
    1.0f / 36, 1.0f / 36, 1.0f / 36, 1.0f / 36, 1.0f / 36, 1.0f / 36,
    1.0f / 36};

namespace {

// Equilibrium distribution; shared by init, CPU reference, and (through the
// annotated kernel expressions, in identical order) the GPU port.
float feq(int q, float rho, float ux, float uy, float uz, float usq) {
  const float eu = static_cast<float>(kLbmEx[q]) * ux +
                   (static_cast<float>(kLbmEy[q]) * uy +
                    static_cast<float>(kLbmEz[q]) * uz);
  const float poly = 4.5f * (eu * eu) + (3.0f * eu + (-1.5f * usq + 1.0f));
  return (kLbmW[q] * rho) * poly;
}

}  // namespace

LbmWorkload LbmWorkload::generate(const LbmParams& p) {
  LbmWorkload w;
  w.p = p;
  const std::size_t cells = p.cells();
  w.f0.resize(static_cast<std::size_t>(kLbmQ) * cells);
  const float u0 = 0.05f;
  for (int z = 0; z < p.nz; ++z) {
    for (int y = 0; y < p.ny; ++y) {
      for (int x = 0; x < p.nx; ++x) {
        const std::size_t c =
            (static_cast<std::size_t>(z) * p.ny + y) * p.nx + x;
        const float uy = u0 * std::sin(2.0f * static_cast<float>(M_PI) *
                                       static_cast<float>(x) /
                                       static_cast<float>(p.nx));
        const float usq = uy * uy;
        for (int q = 0; q < kLbmQ; ++q)
          w.f0[static_cast<std::size_t>(q) * cells + c] =
              feq(q, 1.0f, 0.0f, uy, 0.0f, usq);
      }
    }
  }
  return w;
}

void lbm_cpu(const LbmParams& p, std::vector<float>& f,
             std::vector<float>& f_tmp) {
  const std::size_t cells = p.cells();
  f_tmp.resize(f.size());
  const float omega = 1.0f / p.tau;
  auto wrap = [](int v, int n) { return v < 0 ? v + n : (v >= n ? v - n : v); };

  for (int step = 0; step < p.steps; ++step) {
    for (int z = 0; z < p.nz; ++z) {
      for (int y = 0; y < p.ny; ++y) {
        for (int x = 0; x < p.nx; ++x) {
          const std::size_t c =
              (static_cast<std::size_t>(z) * p.ny + y) * p.nx + x;
          float fq[kLbmQ];
          float rho = 0, ux = 0, uy = 0, uz = 0;
          for (int q = 0; q < kLbmQ; ++q) {
            const int sx = wrap(x - kLbmEx[q], p.nx);
            const int sy = wrap(y - kLbmEy[q], p.ny);
            const int sz = wrap(z - kLbmEz[q], p.nz);
            const std::size_t sc =
                (static_cast<std::size_t>(sz) * p.ny + sy) * p.nx + sx;
            fq[q] = f[static_cast<std::size_t>(q) * cells + sc];
            rho = rho + fq[q];
            ux = static_cast<float>(kLbmEx[q]) * fq[q] + ux;
            uy = static_cast<float>(kLbmEy[q]) * fq[q] + uy;
            uz = static_cast<float>(kLbmEz[q]) * fq[q] + uz;
          }
          const float inv_rho = 1.0f / rho;
          ux *= inv_rho;
          uy *= inv_rho;
          uz *= inv_rho;
          const float usq = ux * ux + (uy * uy + uz * uz);
          for (int q = 0; q < kLbmQ; ++q) {
            const float fe = feq(q, rho, ux, uy, uz, usq);
            f_tmp[static_cast<std::size_t>(q) * cells + c] =
                omega * (fe - fq[q]) + fq[q];
          }
        }
      }
    }
    f.swap(f_tmp);
  }
}

LaunchStats lbm_gpu(Device& dev, const LbmParams& p, LbmLayout layout,
                    const std::vector<float>& f0, std::vector<float>& f_out,
                    int* launches_out) {
  const std::size_t cells = p.cells();
  const int nt = 128;
  G80_CHECK_MSG(p.nx % nt == 0 || p.nx == nt,
                "lattice x extent must be a multiple of the block size");

  // Convert SoA initial state to the requested layout for upload.
  std::vector<float> staged(f0.size());
  if (layout == LbmLayout::kAoS) {
    for (int q = 0; q < kLbmQ; ++q)
      for (std::size_t c = 0; c < cells; ++c)
        staged[c * kLbmQ + q] = f0[static_cast<std::size_t>(q) * cells + c];
  } else {
    staged = f0;
  }

  auto d_a = dev.alloc<float>(staged.size());
  auto d_b = dev.alloc<float>(staged.size());
  d_a.copy_from_host(staged);

  LaunchOptions opt;
  opt.regs_per_thread = 32;  // per-cell moments + loop state
  const Dim3 block(static_cast<unsigned>(nt));
  const Dim3 grid(static_cast<unsigned>(p.nx / nt),
                  static_cast<unsigned>(p.ny * p.nz));

  LaunchStats last;
  DeviceBuffer<float>* src = &d_a;
  DeviceBuffer<float>* dst = &d_b;
  for (int s = 0; s < p.steps; ++s) {
    last = launch(dev, grid, block, opt, LbmKernel{p, layout}, *src, *dst);
    std::swap(src, dst);
  }
  if (launches_out) *launches_out = p.steps;

  // Read back and convert to SoA.
  const auto result = src->copy_to_host();
  f_out.resize(result.size());
  if (layout == LbmLayout::kAoS) {
    for (int q = 0; q < kLbmQ; ++q)
      for (std::size_t c = 0; c < cells; ++c)
        f_out[static_cast<std::size_t>(q) * cells + c] = result[c * kLbmQ + q];
  } else {
    f_out = result;
  }
  return last;
}

AppInfo LbmApp::info() const {
  return AppInfo{
      .name = "LBM",
      .description = "D3Q19 lattice-Boltzmann fluid, kernel relaunched per "
                     "time step",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "shared memory capacity; per-step global sync via "
                          "kernel termination (§5.1)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult LbmApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  LbmParams p;
  if (scale == RunScale::kQuick) {
    p.nx = 128;
    p.ny = 4;
    p.nz = 2;
    p.steps = 2;
  } else {
    p.nx = 128;
    p.ny = 8;
    p.nz = 8;
    p.steps = 4;
  }
  const auto w = LbmWorkload::generate(p);

  AppResult r;
  r.info = info();

  // --- CPU baseline ---
  std::vector<float> f_ref, f_tmp;
  const double host_secs = measure_seconds([&] {
    f_ref = w.f0;
    lbm_cpu(p, f_ref, f_tmp);
  });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  // --- GPU port (the paper's shared-memory-staged, coalesced layout) ---
  dev.ledger().reset();
  std::vector<float> f_gpu;
  int launches = 0;
  const auto stats =
      lbm_gpu(dev, p, LbmLayout::kSoAStaged, w.f0, f_gpu, &launches);
  for (int i = 0; i < launches; ++i) accumulate_launch(r, dev.spec(), stats);
  r.launches = launches;
  r.representative = stats;
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // --- Validate ---
  double err = 0;
  for (std::size_t i = 0; i < f_ref.size(); ++i)
    err = std::max(err, rel_err(f_gpu[i], f_ref[i], 1e-3));
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
