// PNS — Petri net simulation.
//
// Each GPU thread runs an independent stochastic simulation of the same
// Petri net (a replicated Monte-Carlo experiment): repeatedly pick a random
// transition, test whether its input places hold tokens, and fire it.  Per
// the paper (§5.1), PNS is the suite's "one simulation per thread" design —
// no inter-thread communication at all — whose thread count is bounded by
// per-simulation state in *global* memory (Table 3's capacity bottleneck),
// and whose read-only net-structure tables are served from the texture
// cache (the §5.2 optimization worth 2.8x over global-only access,
// reproduced by bench/ablation_texture).
//
// Randomness is a counter-based generator (a pure function of seed and
// draw index), so CPU and GPU trajectories are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/app.h"
#include "cudalite/ctx.h"

namespace g80::apps {

inline constexpr int kPnsPlaces = 64;
inline constexpr int kPnsTransitions = 64;
inline constexpr int kPnsArity = 2;  // input and output places per transition

struct PnsNet {
  // Structure tables (read-only): transition t consumes from in[t*2+k] and
  // produces into out[t*2+k].
  std::vector<std::int32_t> in;   // kPnsTransitions * kPnsArity
  std::vector<std::int32_t> out;  // kPnsTransitions * kPnsArity
  std::vector<std::int32_t> initial_marking;  // kPnsPlaces
  std::uint64_t rng_seed = 0;

  static PnsNet generate(std::uint64_t seed);
};

// Simulates one replica `sim` for `steps` steps; writes the final marking
// (kPnsPlaces ints) and returns the number of fired transitions.
std::int32_t pns_simulate_cpu(const PnsNet& net, int sim, int steps,
                              std::int32_t* marking_out);

enum class PnsTableSpace { kGlobal, kTexture };

struct PnsKernel {
  int num_sims = 0;
  int steps = 0;
  std::uint64_t rng_seed = 0;
  PnsTableSpace table_space = PnsTableSpace::kTexture;

  // Counter-based draw identical to CounterRng::at (annotated).
  template <class Ctx>
  static std::uint64_t draw(Ctx& ctx, std::uint64_t seed, std::uint64_t counter) {
    ctx.ialu(12);  // two 64-bit multiply-mix rounds on 32-bit hardware
    ctx.misc(2);
    return CounterRng(seed).at(counter);
  }

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<std::int32_t>& marking_init,
                  DeviceBuffer<std::int32_t>& tbl_in_g,
                  DeviceBuffer<std::int32_t>& tbl_out_g,
                  const Texture1D<std::int32_t>& tbl_in_t,
                  const Texture1D<std::int32_t>& tbl_out_t,
                  DeviceBuffer<std::int32_t>& marking_out,
                  DeviceBuffer<std::int32_t>& fired_out) const {
    auto MInit = ctx.global(marking_init);
    auto InG = ctx.global(tbl_in_g);
    auto OutG = ctx.global(tbl_out_g);
    auto InT = ctx.texture(tbl_in_t);
    auto OutT = ctx.texture(tbl_out_t);
    auto MOut = ctx.global(marking_out);
    auto Fired = ctx.global(fired_out);

    ctx.ialu(2);
    const int sim = ctx.global_thread_x();
    if (!ctx.branch(sim < num_sims)) return;

    // Per-simulation marking state lives in GLOBAL memory (this is what
    // bounds PNS's thread count in Table 3), strided by simulation count so
    // that identical place indices across lanes coalesce.  The kernel
    // (re)initializes its own slice first, which also keeps it idempotent at
    // block granularity when a retry or a sanitized launch reruns it.
    auto slot = [&](int p2) {
      return static_cast<std::size_t>(p2) * num_sims +
             static_cast<std::size_t>(sim);
    };
    for (int p2 = 0; p2 < kPnsPlaces; ++p2) {
      ctx.ialu(3);
      MOut.st(slot(p2), MInit.ld(static_cast<std::size_t>(p2)));
      ctx.loop_branch();
    }

    const std::uint64_t base =
        static_cast<std::uint64_t>(sim) * static_cast<std::uint64_t>(steps);
    std::int32_t fired = 0;
    for (int s = 0; s < steps; ++s) {
      ctx.ialu(3);
      const int t = static_cast<int>(draw(ctx, rng_seed, base + s) %
                                     kPnsTransitions);
      auto table = [&](bool input, int k) -> std::int32_t {
        const std::size_t idx = static_cast<std::size_t>(t) * kPnsArity + k;
        if (table_space == PnsTableSpace::kTexture) {
          return input ? InT.fetch(idx) : OutT.fetch(idx);
        }
        return input ? InG.ld(idx) : OutG.ld(idx);
      };
      // Enabled iff every input place holds a token.
      bool enabled = true;
      for (int k = 0; k < kPnsArity; ++k) {
        ctx.ialu(2);
        enabled = enabled && MOut.ld(slot(table(true, k))) > 0;
      }
      if (ctx.branch(enabled)) {
        for (int k = 0; k < kPnsArity; ++k) {
          ctx.ialu(3);
          const int pin = table(true, k);
          const int pout = table(false, k);
          MOut.st(slot(pin), MOut.ld(slot(pin)) - 1);
          MOut.st(slot(pout), MOut.ld(slot(pout)) + 1);
        }
        ++fired;
        ctx.ialu(1);
      }
      ctx.loop_branch();
    }
    Fired.st(static_cast<std::size_t>(sim), fired);
  }
};

class PnsApp : public App {
 public:
  AppInfo info() const override;
  AppResult run(const DeviceSpec& spec, RunScale scale) const override;
};

}  // namespace g80::apps
