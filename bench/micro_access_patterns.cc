// Microbenchmark: achieved DRAM bandwidth versus global access pattern —
// the quantified version of §3.2's "this bandwidth can be obtained only
// when accesses are contiguous 16-word lines; in other cases the achievable
// bandwidth is a fraction of the maximum".
//
// A copy kernel reads with a configurable (stride, offset) pattern and
// writes contiguously; the table reports the read-side coalescing outcome
// and the resulting effective bandwidth.
#include <algorithm>
#include <iostream>

#include "bench/harness.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/ctx.h"
#include "cudalite/device.h"
#include "cudalite/launch.h"

using namespace g80;

namespace {

struct PatternCopyKernel {
  int stride = 1;   // element stride between consecutive threads
  int offset = 0;   // elements of misalignment added to every address
  int n = 0;        // output elements

  template <class Ctx>
  void operator()(Ctx& ctx, DeviceBuffer<float>& src,
                  DeviceBuffer<float>& dst) const {
    auto S = ctx.global(src);
    auto D = ctx.global(dst);
    ctx.ialu(3);
    const int i = ctx.global_thread_x();
    if (!ctx.branch(i < n)) return;
    const std::size_t addr =
        (static_cast<std::size_t>(i) * stride + offset) % src.size();
    D.st(i, S.ld(addr));
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "micro_access_patterns");
  Device dev;
  const int n = 1 << 20;
  auto src = dev.alloc<float>(static_cast<std::size_t>(n) * 4);
  auto dst = dev.alloc<float>(n);

  LaunchOptions opt;
  opt.regs_per_thread = 6;
  opt.functional = false;
  const Dim3 block(256);
  const Dim3 grid(static_cast<unsigned>(n / 256));

  h.human() << "Access-pattern microbenchmark: " << n
            << " loads + contiguous stores on " << dev.spec().name << "\n"
            << "(peak " << fixed(dev.spec().dram_bandwidth_gbs, 1)
            << " GB/s; coalesced efficiency "
            << fixed(dev.spec().dram_efficiency, 2) << ", scattered "
            << fixed(dev.spec().dram_scattered_efficiency, 2) << ")\n\n";

  TextTable t({"pattern", "read coalesced %", "txn/read", "useful GB/s",
               "time (ms)", "bottleneck"});

  struct Case {
    const char* name;
    const char* key;
    int stride, offset;
  };
  const Case cases[] = {
      {"unit stride, aligned", "stride1_aligned", 1, 0},
      {"unit stride, +1 word misaligned", "stride1_off1", 1, 1},
      {"unit stride, +4 words misaligned", "stride1_off4", 1, 4},
      {"stride 2", "stride2", 2, 0},
      {"stride 4", "stride4", 4, 0},
      {"stride 16 (one txn per lane)", "stride16", 16, 0},
      {"stride 97 (fully scattered)", "stride97", 97, 0},
  };
  for (const auto& c : cases) {
    const auto s = launch(dev, grid, block, opt,
                          PatternCopyKernel{c.stride, c.offset, n}, src, dst);
    // Read-side coalescing: subtract the always-coalesced store per thread.
    const double total_insts =
        static_cast<double>(s.trace.total.global_instructions);
    const double reads = total_insts / 2.0;
    const double read_coalesced =
        static_cast<double>(s.trace.total.coalesced_instructions) - reads;
    const double useful_gbs =
        static_cast<double>(s.trace.total.useful_global_bytes) /
        static_cast<double>(s.trace.num_blocks) *
        static_cast<double>(s.grid.count()) / s.timing.seconds / 1e9;
    t.add_row({
        c.name,
        fixed(100.0 * std::max(0.0, read_coalesced) / reads, 1),
        fixed(s.trace.transactions_per_mem_inst(), 2),
        fixed(useful_gbs, 1),
        fixed(s.timing.seconds * 1e3, 3),
        std::string(bottleneck_name(s.timing.bottleneck)),
    });
    auto& r = h.result(c.key);
    r.set("read_coalesced_fraction", std::max(0.0, read_coalesced) / reads);
    r.set("txn_per_read", s.trace.transactions_per_mem_inst());
    r.set("useful_gbs", useful_gbs);
    r.set("modeled_ms", s.timing.seconds * 1e3);
  }
  t.print(h.human());
  h.human() << "\nthe cliff from row 1 to row 2 is the §3.2 rule: a single "
               "word of misalignment\nforfeits the 16-word line and "
               "serializes the half-warp\n";
  return h.finish(dev.spec());
}
