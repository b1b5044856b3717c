#include "apps/rc5/rc5.h"

#include "common/measure.h"
#include "common/rng.h"
#include "core/cpu_calibration.h"
#include "cudalite/recorder.h"

namespace g80::apps {

namespace {

// Host-side rotate/encrypt mirrors the kernel exactly (integer arithmetic is
// bit-exact, so validation demands equality).
std::uint32_t rotl_host(std::uint32_t v, std::uint32_t n) {
  n &= 31u;
  return n == 0 ? v : ((v << n) | (v >> (32u - n)));
}

}  // namespace

void rc5_encrypt_host(std::uint64_t key_lo64, std::uint8_t key_hi,
                      const std::uint32_t plain[2], std::uint32_t out[2]) {
  constexpr std::uint32_t P = 0xB7E15163u, Q = 0x9E3779B9u;
  std::uint32_t L[3] = {static_cast<std::uint32_t>(key_lo64),
                        static_cast<std::uint32_t>(key_lo64 >> 32),
                        static_cast<std::uint32_t>(key_hi)};
  std::uint32_t S[kRc5ScheduleWords];
  S[0] = P;
  for (int i = 1; i < kRc5ScheduleWords; ++i) S[i] = S[i - 1] + Q;
  std::uint32_t A = 0, B = 0;
  int i = 0, j = 0;
  for (int k = 0; k < 3 * kRc5ScheduleWords; ++k) {
    A = S[i] = rotl_host(S[i] + A + B, 3);
    B = L[j] = rotl_host(L[j] + A + B, A + B);
    i = (i + 1) % kRc5ScheduleWords;
    j = (j + 1) % 3;
  }
  std::uint32_t a = plain[0] + S[0];
  std::uint32_t b = plain[1] + S[1];
  for (int r = 1; r <= kRc5Rounds; ++r) {
    a = rotl_host(a ^ b, b) + S[2 * r];
    b = rotl_host(b ^ a, a) + S[2 * r + 1];
  }
  out[0] = a;
  out[1] = b;
}

Rc5Workload Rc5Workload::generate(std::uint32_t num_keys, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Rc5Workload w;
  w.num_keys = num_keys;
  w.key_base = rng.next_u64() & ~0xFFFFFFFFull;  // window-aligned
  w.key_hi = static_cast<std::uint8_t>(rng.next_u64());
  w.planted = static_cast<std::uint32_t>(rng.next_below(num_keys));
  rc5_encrypt_host(w.key_base + w.planted, w.key_hi, w.plain, w.target);
  return w;
}

std::uint32_t rc5_cpu(const Rc5Workload& w, std::vector<std::uint8_t>& partial) {
  partial.assign(w.num_keys, 0);
  std::uint32_t found = w.num_keys;
  for (std::uint32_t k = 0; k < w.num_keys; ++k) {
    std::uint32_t ct[2];
    rc5_encrypt_host(w.key_base + k, w.key_hi, w.plain, ct);
    partial[k] = static_cast<std::uint8_t>((ct[0] & 0xFFu) ==
                                           (w.target[0] & 0xFFu));
    if (ct[0] == w.target[0] && ct[1] == w.target[1]) found = k;
  }
  return found;
}

AppInfo Rc5App::info() const {
  return AppInfo{
      .name = "RC5-72",
      .description = "brute-force RC5 key search over a 72-bit key window",
      .paper_kernel_pct = std::nullopt,
      .paper_bottleneck = "instruction issue; variable rotates emulated "
                          "(no modulus-shift on G80, §5.1)",
      .paper_kernel_speedup = std::nullopt,
      .paper_app_speedup = std::nullopt,
  };
}

AppResult Rc5App::run(const DeviceSpec& spec, RunScale scale) const {
  Device dev(spec);
  const std::uint32_t num_keys =
      scale == RunScale::kQuick ? (1u << 13) : (1u << 18);
  const auto w = Rc5Workload::generate(num_keys, /*seed=*/51);

  AppResult r;
  r.info = info();

  std::vector<std::uint8_t> partial_ref;
  std::uint32_t found_ref = 0;
  const double host_secs =
      measure_seconds([&] { found_ref = rc5_cpu(w, partial_ref); });
  r.cpu_kernel_seconds = to_opteron_seconds(host_secs);
  r.cpu_other_seconds = 0;

  dev.ledger().reset();
  auto dfound = dev.alloc<std::uint32_t>(1);
  dfound.fill(w.num_keys);
  auto dpartial = dev.alloc<std::uint8_t>(w.num_keys);

  Rc5Kernel kernel;
  kernel.w = w;
  kernel.keys_per_thread = 4;

  LaunchOptions opt;
  opt.regs_per_thread = 42;  // the 26-word schedule largely lives in registers
  const std::uint32_t threads_total =
      (w.num_keys + kernel.keys_per_thread - 1) / kernel.keys_per_thread;
  const Dim3 block(192);  // 42 regs x 192 thr: one block short of the file
  const Dim3 grid((threads_total + block.x - 1) / block.x);
  const auto stats = launch(dev, grid, block, opt, kernel, dfound, dpartial);

  const auto found_gpu = dfound.copy_to_host();
  const auto partial_gpu = dpartial.copy_to_host();

  accumulate_launch(r, dev.spec(), stats);
  r.transfer_seconds = dev.ledger().seconds(dev.spec());

  // Bit-exact integer results: demand equality.
  double err = 0;
  if (found_gpu[0] != found_ref || found_ref != w.planted) err = 1.0;
  for (std::uint32_t k = 0; k < w.num_keys; ++k)
    if (partial_gpu[k] != partial_ref[k]) err = 1.0;
  finish_validation(r, err, 0.0);
  return r;
}

}  // namespace g80::apps
