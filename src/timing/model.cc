#include "timing/model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "mem/dram.h"

namespace g80 {

std::string_view bottleneck_name(Bottleneck b) {
  switch (b) {
    case Bottleneck::kInstructionIssue: return "instruction issue";
    case Bottleneck::kGlobalBandwidth: return "global memory bandwidth";
    case Bottleneck::kGlobalLatency: return "global memory latency";
    case Bottleneck::kSynchronization: return "synchronization stalls";
    case Bottleneck::kIdle: return "machine underfilled";
  }
  G80_CHECK(false);
}

KernelTiming simulate_kernel(const DeviceSpec& spec, const Occupancy& occ,
                             std::uint64_t total_blocks,
                             const TraceSummary& summary) {
  G80_CHECK_MSG(summary.num_warps > 0, "timing requires at least one traced warp");
  G80_CHECK(total_blocks > 0);

  KernelTiming t;
  t.occupancy = occ;

  const DramModel dram(spec);
  const double N = occ.active_warps_per_sm;         // resident warps per SM
  const double L = spec.global_latency_cycles;

  // --- Per-warp means from the trace ---
  const double C = summary.mean_issue_cycles(spec);  // issue cycles per warp
  const double m_insts = summary.mean_global_instructions();
  const double txn_per_inst = summary.transactions_per_mem_inst();
  const double bytes_per_inst = summary.dram_bytes_per_mem_inst();
  const double syncs_per_warp =
      static_cast<double>(summary.total.ops[OpClass::kSync]) /
      static_cast<double>(summary.num_warps);

  // Effective latency of one warp-level memory instruction: base pipeline
  // latency plus serialization of the extra transactions an uncoalesced
  // access issues (its result is complete only when the last per-address
  // transaction returns).
  const double L_eff =
      L + std::max(0.0, txn_per_inst - 2.0) *
              spec.uncoalesced_issue_cycles_per_txn;

  // --- Warp-parallelism quantities (Hong/Kim-style) ---
  // Bytes/cycle one SM may consume as its fair share of the DRAM pins.
  const double bpc_device = dram.effective_bandwidth_gbs() / spec.core_clock_ghz;
  const double bpc_sm = bpc_device / spec.num_sms;
  const double mwp_bw =
      bytes_per_inst > 0 ? L_eff * bpc_sm / bytes_per_inst : N;
  const double mwp_mlp = L_eff / spec.mem_issue_interval_cycles;
  t.mwp = std::clamp(std::min(mwp_bw, mwp_mlp), 1.0, std::max(N, 1.0));

  const double c_per_period = m_insts > 0 ? C / m_insts : C;
  const double cwp_full =
      m_insts > 0 ? (c_per_period + L_eff) / std::max(c_per_period, 1.0) : 1.0;
  t.cwp = std::min(N, cwp_full);

  // --- Candidate wave times (one "wave" = blocks_per_sm blocks on each SM) ---
  // 1. Issue floor: every resident warp's instructions through one issue unit.
  t.issue_floor_cycles = C * N;

  // 2. Memory-latency bound: when CWP > MWP the SM is waiting on memory most
  //    of the time; requests overlap only MWP-deep.
  const double M = m_insts * L_eff;  // memory stall cycles per warp, serial
  t.latency_bound_cycles =
      m_insts > 0 ? M * (N / t.mwp) + c_per_period * (t.mwp - 1.0) : 0.0;

  // 3. Device bandwidth floor: all resident blocks' DRAM bytes at effective
  //    bandwidth.  Uses the full coalesced/scattered split.
  DramTraffic wave_traffic;
  {
    const double scale = N * spec.num_sms / static_cast<double>(summary.num_warps);
    wave_traffic.bytes =
        static_cast<std::uint64_t>(static_cast<double>(summary.total.global.bytes) * scale);
    wave_traffic.scattered_bytes = static_cast<std::uint64_t>(
        static_cast<double>(summary.total.global.scattered_bytes) * scale);
    wave_traffic.transactions = static_cast<std::uint64_t>(
        static_cast<double>(summary.total.global.transactions) * scale);
  }
  t.bandwidth_floor_cycles = dram.bandwidth_cycles(wave_traffic);

  // 4. Barrier exposure: at a __syncthreads the block waits for its slowest
  //    outstanding load.  The SM only idles if no resident warp has issue
  //    work left; warps arrive at the barrier staggered by their
  //    between-barrier issue, so coverage is (N-1) warps' worth of one
  //    barrier interval (the §4.4 "enough threads to avoid being stalled"
  //    principle).
  const double issue_per_barrier_interval = C / (syncs_per_warp + 1.0);
  const double other_issue =
      std::max(0.0, N - 1.0) * issue_per_barrier_interval;
  const double exposed_per_sync = std::max(0.0, L_eff - other_issue);
  t.sync_stall_cycles = syncs_per_warp * exposed_per_sync;

  // --- Combine ---
  // Latency-bound when the warps would need more overlap than the memory
  // system provides (unclamped CWP vs MWP: with a single resident warp the
  // clamped CWP would mask the fully-serial case).
  const bool latency_bound = m_insts > 0 && cwp_full > t.mwp;
  double wave = std::max(t.issue_floor_cycles, t.bandwidth_floor_cycles);
  if (latency_bound) wave = std::max(wave, t.latency_bound_cycles);
  wave += t.sync_stall_cycles;
  if (m_insts > 0) wave += L_eff;  // pipeline fill/drain tail
  t.wave_cycles = wave;

  const double blocks_per_wave =
      static_cast<double>(occ.blocks_per_sm) * spec.num_sms;
  t.waves = std::max(1.0, static_cast<double>(total_blocks) / blocks_per_wave);
  t.kernel_cycles = t.waves * wave;
  t.seconds = t.kernel_cycles / (spec.core_clock_ghz * 1e9);

  // --- Achieved rates, extrapolated from the sampled blocks ---
  const double flops_per_block =
      summary.total.lane_flops / static_cast<double>(summary.num_blocks);
  t.total_flops = flops_per_block * static_cast<double>(total_blocks);
  t.gflops = t.total_flops / t.seconds / 1e9;

  const double bytes_per_block =
      static_cast<double>(summary.total.global.bytes) /
      static_cast<double>(summary.num_blocks);
  t.total_dram_bytes = bytes_per_block * static_cast<double>(total_blocks);
  t.dram_gbs = t.total_dram_bytes / t.seconds / 1e9;

  // Table 3's global-memory-to-computation cycle ratio.
  const double mem_cycles_per_warp = m_insts * L_eff;
  t.mem_to_compute_ratio = C > 0 ? mem_cycles_per_warp / C : 0.0;

  // --- Classify the binding constraint ---
  // Share of the issue floor that is memory-port serialization from
  // uncoalesced transactions (as opposed to arithmetic issue slots).
  const double extra_txn_cycles_per_warp =
      std::max(0.0, static_cast<double>(summary.total.global.transactions) -
                        2.0 * static_cast<double>(
                                  summary.total.global_instructions)) *
      spec.uncoalesced_issue_cycles_per_txn /
      static_cast<double>(summary.num_warps);
  const bool port_dominated =
      C > 0 && extra_txn_cycles_per_warp > 0.4 * C;

  if (total_blocks < blocks_per_wave && t.waves <= 1.0 &&
      static_cast<double>(total_blocks) < 0.5 * blocks_per_wave) {
    t.bottleneck = Bottleneck::kIdle;
  } else if (t.sync_stall_cycles > 0.3 * wave) {
    t.bottleneck = Bottleneck::kSynchronization;
  } else if (wave - t.sync_stall_cycles <=
                 t.issue_floor_cycles + L_eff + 1e-9 &&
             port_dominated) {
    // The "issue" floor is mostly serialized memory commands: that is a
    // memory-system bottleneck (the §4.1 naive-matmul diagnosis), not an
    // arithmetic one.
    t.bottleneck = Bottleneck::kGlobalBandwidth;
  } else if (t.bandwidth_floor_cycles >= t.issue_floor_cycles &&
             (!latency_bound ||
              t.bandwidth_floor_cycles >= 0.8 * t.latency_bound_cycles)) {
    t.bottleneck = t.bandwidth_floor_cycles > t.issue_floor_cycles
                       ? Bottleneck::kGlobalBandwidth
                       : Bottleneck::kInstructionIssue;
  } else if (latency_bound && t.latency_bound_cycles > t.issue_floor_cycles) {
    t.bottleneck = Bottleneck::kGlobalLatency;
  } else {
    t.bottleneck = Bottleneck::kInstructionIssue;
  }
  return t;
}

double transfer_seconds(const DeviceSpec& spec, std::uint64_t bytes,
                        std::uint64_t num_transfers) {
  const double bw = spec.pcie_bandwidth_gbs * 1e9;  // bytes/s
  return static_cast<double>(num_transfers) * spec.pcie_latency_us * 1e-6 +
         static_cast<double>(bytes) / bw;
}

}  // namespace g80
