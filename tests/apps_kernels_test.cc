// Per-application property tests beyond the suite-level validation:
// algorithmic invariants of TPACF, RC5, PNS, FEM, FDTD, RPES, H.264, MRI.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "apps/fdtd/fdtd.h"
#include "apps/fem/fem.h"
#include "apps/h264/h264.h"
#include "apps/mri/mri_fhd.h"
#include "apps/mri/mri_q.h"
#include "apps/pns/pns.h"
#include "apps/rc5/rc5.h"
#include "apps/rpes/rpes.h"
#include "apps/tpacf/tpacf.h"
#include "common/stats.h"
#include "cudalite/device.h"

namespace g80 {
namespace {

using namespace apps;

// ---- TPACF -------------------------------------------------------------------

TEST(Tpacf, BinningIsMonotonicAndTotalPreserved) {
  const auto w = TpacfWorkload::generate(256, 3);
  // Bin edges descend; the bin function maps dot=1 (angle 0) to bin 0 and
  // dot=-1 (angle pi) to the last bin.
  for (std::size_t i = 1; i < w.bin_edges.size(); ++i)
    EXPECT_LT(w.bin_edges[i], w.bin_edges[i - 1]);
  EXPECT_EQ(tpacf_bin(w.bin_edges, 1.0f), 0);
  EXPECT_EQ(tpacf_bin(w.bin_edges, -1.0f), kTpacfBins - 1);
  // Monotone: smaller dot (larger angle) never lands in a smaller bin.
  int prev = 0;
  for (float dot = 1.0f; dot >= -1.0f; dot -= 0.01f) {
    const int b = tpacf_bin(w.bin_edges, dot);
    EXPECT_GE(b, prev);
    prev = b;
  }

  std::array<std::uint64_t, kTpacfBins> hist{};
  tpacf_cpu(w, hist);
  const auto total = std::accumulate(hist.begin(), hist.end(), 0ull);
  EXPECT_EQ(total, 256ull * 255 / 2);  // every unordered pair exactly once
}

TEST(Tpacf, PointsLieOnUnitSphere) {
  const auto w = TpacfWorkload::generate(512, 5);
  for (std::size_t i = 0; i < w.x.size(); ++i) {
    const double n2 = static_cast<double>(w.x[i]) * w.x[i] +
                      static_cast<double>(w.y[i]) * w.y[i] +
                      static_cast<double>(w.z[i]) * w.z[i];
    ASSERT_NEAR(n2, 1.0, 1e-5);
  }
}

// ---- RC5 ---------------------------------------------------------------------

TEST(Rc5, EncryptIsDeterministicAndKeySensitive) {
  const std::uint32_t pt[2] = {0x12345678u, 0x9ABCDEF0u};
  std::uint32_t c1[2], c2[2], c3[2];
  rc5_encrypt_host(0x1111222233334444ull, 0x55, pt, c1);
  rc5_encrypt_host(0x1111222233334444ull, 0x55, pt, c2);
  rc5_encrypt_host(0x1111222233334445ull, 0x55, pt, c3);  // 1-bit key change
  EXPECT_EQ(c1[0], c2[0]);
  EXPECT_EQ(c1[1], c2[1]);
  EXPECT_TRUE(c1[0] != c3[0] || c1[1] != c3[1]);
}

TEST(Rc5, AvalancheOnKeyBit) {
  // Flipping one key bit should flip ~half the ciphertext bits.
  const std::uint32_t pt[2] = {0xDEADBEEFu, 0xCAFEF00Du};
  RunningStat flips;
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t a[2], b[2];
    rc5_encrypt_host(0xABCDEF0123456789ull, 0x42, pt, a);
    rc5_encrypt_host(0xABCDEF0123456789ull ^ (1ull << bit), 0x42, pt, b);
    flips.add(std::popcount(a[0] ^ b[0]) + std::popcount(a[1] ^ b[1]));
  }
  EXPECT_NEAR(flips.mean(), 32.0, 6.0);
}

TEST(Rc5, CpuSearchFindsPlantedKey) {
  const auto w = Rc5Workload::generate(4096, 9);
  std::vector<std::uint8_t> partial;
  EXPECT_EQ(rc5_cpu(w, partial), w.planted);
  // Partial-match flags: the planted key must be flagged; roughly 1/256 of
  // others flag by chance.
  EXPECT_EQ(partial[w.planted], 1);
  const auto count = std::accumulate(partial.begin(), partial.end(), 0);
  EXPECT_LT(count, 100);  // 4096/256 ~ 16 expected
}

// ---- PNS ---------------------------------------------------------------------

TEST(Pns, TokenCountIsInvariant) {
  // Every transition consumes kPnsArity tokens and produces kPnsArity: the
  // total token count is conserved along any trajectory.
  const auto net = PnsNet::generate(4);
  const auto initial = std::accumulate(net.initial_marking.begin(),
                                       net.initial_marking.end(), 0);
  std::vector<std::int32_t> marking(kPnsPlaces);
  for (int sim = 0; sim < 32; ++sim) {
    pns_simulate_cpu(net, sim, 512, marking.data());
    EXPECT_EQ(std::accumulate(marking.begin(), marking.end(), 0), initial);
    for (auto m : marking) EXPECT_GE(m, 0);
  }
}

TEST(Pns, ReplicasDifferButAreReproducible) {
  const auto net = PnsNet::generate(4);
  std::vector<std::int32_t> m1(kPnsPlaces), m2(kPnsPlaces);
  const auto f1 = pns_simulate_cpu(net, 1, 256, m1.data());
  const auto f1b = pns_simulate_cpu(net, 1, 256, m2.data());
  EXPECT_EQ(f1, f1b);
  EXPECT_EQ(m1, m2);
  const auto f2 = pns_simulate_cpu(net, 2, 256, m2.data());
  EXPECT_TRUE(f1 != f2 || m1 != m2);  // different replica, different path
}

// ---- FEM ---------------------------------------------------------------------

TEST(Fem, MeshIsWellFormed) {
  const auto m = FemMesh::generate(1024, 8, 7);
  EXPECT_EQ(m.row_ptr.size(), 1025u);
  EXPECT_EQ(m.row_ptr.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(m.row_ptr.back()), m.col_idx.size());
  for (int i = 0; i < m.nodes; ++i) {
    EXPECT_LE(m.row_ptr[i], m.row_ptr[i + 1]);
    double row_sum = 0;
    for (int e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e) {
      EXPECT_GE(m.col_idx[static_cast<std::size_t>(e)], 0);
      EXPECT_LT(m.col_idx[static_cast<std::size_t>(e)], m.nodes);
      EXPECT_NE(m.col_idx[static_cast<std::size_t>(e)], i);  // no diagonal
      row_sum += std::abs(m.values[static_cast<std::size_t>(e)]);
    }
    EXPECT_GT(m.diag[static_cast<std::size_t>(i)], row_sum);  // dominance
  }
}

TEST(Fem, JacobiResidualDecreases) {
  const auto m = FemMesh::generate(2048, 8, 11);
  auto residual = [&](const std::vector<float>& x) {
    double r2 = 0;
    for (int i = 0; i < m.nodes; ++i) {
      double acc = m.diag[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)] -
                   m.rhs[static_cast<std::size_t>(i)];
      for (int e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e)
        acc += m.values[static_cast<std::size_t>(e)] *
               x[static_cast<std::size_t>(m.col_idx[static_cast<std::size_t>(e)])];
      r2 += acc * acc;
    }
    return std::sqrt(r2);
  };
  std::vector<float> x2, x8;
  fem_cpu(m, 2, x2);
  fem_cpu(m, 8, x8);
  EXPECT_LT(residual(x8), 0.5 * residual(x2));
}

// ---- FDTD --------------------------------------------------------------------

TEST(Fdtd, SourceInjectsEnergyAndFieldsStayFinite) {
  FdtdParams p;
  p.nx = 16;
  p.ny = 16;
  p.nz = 16;
  p.steps = 8;
  FdtdFields f;
  f.resize(p.cells());
  const auto energies = fdtd_cpu(p, f);
  ASSERT_EQ(energies.size(), 8u);
  EXPECT_GT(energies.back(), 0.0f);
  for (float e : energies) EXPECT_TRUE(std::isfinite(e));
  for (float v : f.ez) EXPECT_TRUE(std::isfinite(v));
}

TEST(Fdtd, PecBoundariesHoldAtFaces) {
  FdtdParams p;
  p.nx = 12;
  p.ny = 12;
  p.nz = 12;
  p.steps = 6;
  FdtdFields f;
  f.resize(p.cells());
  fdtd_cpu(p, f);
  // Boundary cells are copied, never updated: E stays zero on the x=0 face.
  for (int z = 0; z < p.nz; ++z)
    for (int y = 0; y < p.ny; ++y)
      EXPECT_EQ(f.ex[p.idx(0, y, z)], 0.0f);
}

// ---- RPES --------------------------------------------------------------------

TEST(Rpes, IntegralsAreSymmetricPositive) {
  const auto w = RpesWorkload::generate(64, 13);
  std::vector<float> out;
  rpes_cpu(w, out);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      const float ij = out[static_cast<std::size_t>(i) * 64 + j];
      const float ji = out[static_cast<std::size_t>(j) * 64 + i];
      ASSERT_NEAR(ij, ji, 1e-5f * std::abs(ij) + 1e-7f);  // symmetry
      ASSERT_GT(ij, 0.0f);  // positive-definite class of integrals
    }
  }
}

TEST(Rpes, DecaysWithDistance) {
  // F0(T) decreases with separation: far pairs yield smaller integrals.
  RpesWorkload w = RpesWorkload::generate(2, 1);
  w.px = {0.0f, 0.1f};
  w.py = {0.0f, 0.0f};
  w.pz = {0.0f, 0.0f};
  w.eta = {1.0f, 1.0f};
  w.coef = {1.0f, 1.0f};
  std::vector<float> near_out;
  rpes_cpu(w, near_out);
  w.px[1] = 5.0f;
  std::vector<float> far_out;
  rpes_cpu(w, far_out);
  EXPECT_GT(near_out[1], 2.0f * far_out[1]);
}

// ---- H.264 -------------------------------------------------------------------

TEST(H264, FullSearchRecoversPlantedMotion) {
  // With low noise, the best SAD must be at (or adjacent to) the planted
  // vector for the vast majority of macroblocks.
  const auto w = H264Workload::generate(96, 64, 17);
  std::vector<H264Motion> motion;
  h264_me_cpu(w, motion);
  int exact = 0;
  for (int mb = 0; mb < w.num_mbs(); ++mb) {
    const auto [mvx, mvy] = H264Motion::decode_mv(motion[static_cast<std::size_t>(mb)].best_cand);
    if (mvx == w.true_mvx[static_cast<std::size_t>(mb)] &&
        mvy == w.true_mvy[static_cast<std::size_t>(mb)])
      ++exact;
  }
  EXPECT_GT(exact, w.num_mbs() * 3 / 4);
}

TEST(H264, ResidualChecksumIsStable) {
  const auto w = H264Workload::generate(64, 48, 23);
  std::vector<H264Motion> motion;
  h264_me_cpu(w, motion);
  EXPECT_EQ(h264_encode_residual_cpu(w, motion),
            h264_encode_residual_cpu(w, motion));
}

// ---- MRI ---------------------------------------------------------------------

TEST(Mri, QAndFhdAgreeOnPhaseStructure) {
  // With rho == (1, 0), FHd reduces to (sum cos, -sum sin) while Q with
  // phi == 1 gives (sum cos, sum sin): imaginary parts are negatives.
  auto w = MriWorkload::generate(64, 32, 29);
  for (auto& s : w.samples) s.w = 1.0f;
  for (auto& r : w.rho) r = {1.0f, 0.0f};
  std::vector<float> qr, qi, fr, fi;
  mri_q_cpu(w, qr, qi);
  mri_fhd_cpu(w, fr, fi);
  for (int v = 0; v < 64; ++v) {
    EXPECT_NEAR(qr[static_cast<std::size_t>(v)], fr[static_cast<std::size_t>(v)], 1e-4);
    EXPECT_NEAR(qi[static_cast<std::size_t>(v)], -fi[static_cast<std::size_t>(v)], 1e-4);
  }
}

TEST(Mri, SfuAndSoftwareTrigAgreeNumerically) {
  // The ablation's two paths must compute the same answer.
  const auto w = MriWorkload::generate(256, 64, 31);
  Device dev;
  auto dx = dev.alloc<float>(w.x.size());
  auto dy = dev.alloc<float>(w.y.size());
  auto dz = dev.alloc<float>(w.z.size());
  dx.copy_from_host(w.x);
  dy.copy_from_host(w.y);
  dz.copy_from_host(w.z);
  auto dk = dev.alloc_constant<Float4>(w.samples.size());
  dk.copy_from_host(w.samples);
  auto qr1 = dev.alloc<float>(w.x.size());
  auto qi1 = dev.alloc<float>(w.x.size());
  auto qr2 = dev.alloc<float>(w.x.size());
  auto qi2 = dev.alloc<float>(w.x.size());

  LaunchOptions opt;
  const Dim3 block(256);
  const Dim3 grid(1);
  const int nv = static_cast<int>(w.x.size());
  launch(dev, grid, block, opt, MriQKernel{nv, true}, dx, dy, dz, dk, qr1, qi1);
  launch(dev, grid, block, opt, MriQKernel{nv, false}, dx, dy, dz, dk, qr2, qi2);
  const auto a = qr1.copy_to_host(), b = qr2.copy_to_host();
  for (int v = 0; v < nv; ++v)
    EXPECT_NEAR(a[static_cast<std::size_t>(v)], b[static_cast<std::size_t>(v)],
                1e-4);
}

}  // namespace
}  // namespace g80
