// Ablation: native vs emulated modulus-shift (rotate) in RC5-72.
//
// §5.1: "the GeForce 8800 lacks a modulus-shift operation.  Performance of
// the code if a native modulus-shift were available is estimated to be
// several times higher."  We run the key-search kernel with rotates costing
// one instruction (hypothetical native) versus the shl/shr/or emulation.
#include <iostream>

#include "apps/rc5/rc5.h"
#include "common/str.h"
#include "common/table.h"
#include "cudalite/device.h"

using namespace g80;
using namespace g80::apps;

int main() {
  const auto w = Rc5Workload::generate(1u << 18, /*seed=*/51);

  Device dev;
  auto dfound = dev.alloc<std::uint32_t>(1);
  auto dpartial = dev.alloc<std::uint8_t>(w.num_keys);

  Rc5Kernel kernel;
  kernel.w = w;
  kernel.keys_per_thread = 4;

  LaunchOptions opt;
  opt.regs_per_thread = 42;
  opt.functional = false;
  const std::uint32_t threads_total = w.num_keys / kernel.keys_per_thread;
  const Dim3 block(192);
  const Dim3 grid((threads_total + block.x - 1) / block.x);

  kernel.native_rotate = false;
  const auto emulated =
      launch(dev, grid, block, opt, kernel, dfound, dpartial);
  kernel.native_rotate = true;
  const auto native = launch(dev, grid, block, opt, kernel, dfound, dpartial);

  std::cout << "Ablation: RC5-72 rotate emulation (" << w.num_keys
            << " keys)\n\n";
  TextTable t({"ISA", "time (ms)", "ialu instrs/warp", "keys/s (millions)"});
  for (const auto& [name, s] :
       {std::pair{"emulated rotate (shl/sub/shr/or)", &emulated},
        std::pair{"hypothetical native rotate", &native}}) {
    t.add_row({name, fixed(s->timing.seconds * 1e3, 3),
               fixed(static_cast<double>(s->trace.total.ops[OpClass::kIAlu]) /
                         static_cast<double>(s->trace.num_warps),
                     0),
               fixed(w.num_keys / s->timing.seconds / 1e6, 1)});
  }
  t.print(std::cout);
  std::cout << "\nnative-rotate speedup: "
            << fixed(emulated.timing.seconds / native.timing.seconds, 2)
            << "x (paper: \"several times higher\", §5.1)\n";
  return 0;
}
