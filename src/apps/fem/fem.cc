#include "apps/fem/fem.h"

#include <algorithm>
#include <cmath>

#include "common/measure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/cpu_calibration.h"

namespace g80::apps {

FemMesh FemMesh::generate(int nodes, int avg_degree, std::uint64_t seed) {
  SplitMix64 rng(seed);
  FemMesh m;
  m.nodes = nodes;
  m.row_ptr.resize(nodes + 1, 0);

  // Synthetic unstructured mesh: each node connects to a few nearby nodes
  // (banded locality, like a reordered FEM matrix) plus one long-range
  // coupling, symmetrized implicitly by sampling both directions.
  std::vector<std::vector<std::pair<int, float>>> adj(nodes);
  for (int i = 0; i < nodes; ++i) {
    const int deg = 1 + static_cast<int>(rng.next_below(2 * avg_degree - 1));
    for (int d = 0; d < deg; ++d) {
      int j;
      if (d + 1 == deg) {
        j = static_cast<int>(rng.next_below(nodes));  // long-range
      } else {
        const int off = 1 + static_cast<int>(rng.next_below(32));
        j = (i + (rng.next_u64() & 1 ? off : nodes - off)) % nodes;
      }
      if (j == i) continue;
      adj[i].emplace_back(j, rng.uniform_f(0.01f, 1.0f));
    }
    std::sort(adj[i].begin(), adj[i].end());
    adj[i].erase(std::unique(adj[i].begin(), adj[i].end(),
                             [](auto& a, auto& b) { return a.first == b.first; }),
                 adj[i].end());
  }
  for (int i = 0; i < nodes; ++i) {
    m.row_ptr[i + 1] = m.row_ptr[i] + static_cast<int>(adj[i].size());
    for (auto& [j, v] : adj[i]) {
      m.col_idx.push_back(j);
      m.values.push_back(v);
    }
  }
  m.diag.resize(nodes);
  m.rhs.resize(nodes);
  for (int i = 0; i < nodes; ++i) {
    float row_sum = 0;
    for (int e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e)
      row_sum += std::abs(m.values[static_cast<std::size_t>(e)]);
    m.diag[i] = row_sum + 1.0f;  // strict diagonal dominance
    m.rhs[i] = rng.uniform_f(-1.0f, 1.0f);
  }
  return m;
}

int FemMesh::ell_width() const {
  int w = 0;
  for (int i = 0; i < nodes; ++i) w = std::max(w, row_ptr[i + 1] - row_ptr[i]);
  return w;
}

void FemMesh::to_ell(std::vector<int>& cols, std::vector<float>& vals) const {
  const int w = ell_width();
  cols.assign(static_cast<std::size_t>(w) * nodes, 0);
  vals.assign(static_cast<std::size_t>(w) * nodes, 0.0f);
  for (int i = 0; i < nodes; ++i) {
    int k = 0;
    for (int e = row_ptr[i]; e < row_ptr[i + 1]; ++e, ++k) {
      cols[static_cast<std::size_t>(k) * nodes + i] = col_idx[static_cast<std::size_t>(e)];
      vals[static_cast<std::size_t>(k) * nodes + i] = values[static_cast<std::size_t>(e)];
    }
    for (; k < w; ++k)
      cols[static_cast<std::size_t>(k) * nodes + i] = i;  // value 0: harmless
  }
}

void fem_cpu(const FemMesh& m, int iters, std::vector<float>& x) {
  x.assign(m.nodes, 0.0f);
  std::vector<float> xn(m.nodes);
  for (int it = 0; it < iters; ++it) {
    for (int i = 0; i < m.nodes; ++i) {
      float acc = m.rhs[i];
      for (int e = m.row_ptr[i]; e < m.row_ptr[i + 1]; ++e) {
        acc = (0.0f - m.values[static_cast<std::size_t>(e)]) *
                  x[static_cast<std::size_t>(m.col_idx[static_cast<std::size_t>(e)])] +
              acc;
      }
      // Mirrors the kernel's fdiv (rcp + mul).
      xn[i] = acc * (1.0f / m.diag[i]);
    }
    x.swap(xn);
  }
}

AppInfo FemApp::info() const {
  return AppInfo{
      .name = "FEM",
      .description = "Jacobi relaxation on an unstructured sparse mesh",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "global memory bandwidth (irregular gathers, high "
                          "memory-to-compute ratio, §5.1)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult FemApp::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const int nodes = scale == RunScale::kQuick ? 4096 : 32768;
  const int iters = scale == RunScale::kQuick ? 2 : 4;
  const auto m = FemMesh::generate(nodes, 8, /*seed=*/61);

  AppResult r;
  r.info = info();

  std::vector<float> x_ref;
  const double host_secs = measure_seconds([&] { fem_cpu(m, iters, x_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  std::vector<int> ell_cols;
  std::vector<float> ell_vals;
  m.to_ell(ell_cols, ell_vals);
  auto d_ci = dev.alloc<int>(ell_cols.size());
  auto d_va = dev.alloc<float>(ell_vals.size());
  auto d_dg = dev.alloc<float>(m.diag.size());
  auto d_b = dev.alloc<float>(m.rhs.size());
  auto d_xa = dev.alloc<float>(m.diag.size());
  auto d_xb = dev.alloc<float>(m.diag.size());
  d_ci.copy_from_host(ell_cols);
  d_va.copy_from_host(ell_vals);
  d_dg.copy_from_host(m.diag);
  d_b.copy_from_host(m.rhs);
  d_xa.fill(0.0f);

  LaunchOptions opt;
  opt.regs_per_thread = 12;
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>((nodes + 255) / 256));

  auto *src = &d_xa, *dst = &d_xb;
  LaunchStats stats;
  for (int it = 0; it < iters; ++it) {
    stats = launch(dev, grid, block, opt, FemKernel{nodes, m.ell_width()},
                   d_ci, d_va, d_dg, d_b, *src, *dst);
    std::swap(src, dst);
    accumulate_launch(r, dev.spec(), stats, /*representative=*/true);
  }
  const auto x_gpu = src->copy_to_host();
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  double err = 0;
  for (int i = 0; i < nodes; ++i)
    err = std::max(err, rel_err(x_gpu[static_cast<std::size_t>(i)],
                                x_ref[static_cast<std::size_t>(i)], 1e-3));
  finish_validation(r, err, 1e-4);
  return r;
}

}  // namespace g80::apps
