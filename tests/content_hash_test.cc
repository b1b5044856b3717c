// ContentHasher golden values.  These digests are load-bearing: they key the
// g80serve on-disk result cache and appear as device_spec_hash in every
// checked-in bench baseline.  If canonicalization changes — a format string,
// the separator, the field order of launch_config_hash or device_spec_hash —
// these tests fail, which is the intended loud alarm: bump
// serve::kModelVersion and regenerate baselines rather than silently
// orphaning every cached artifact.
#include <gtest/gtest.h>

#include "common/content_hash.h"
#include "hw/device_spec.h"

namespace g80 {
namespace {

TEST(ContentHasher, EmptyDigestIsOffsetBasis) {
  ContentHasher h;
  EXPECT_EQ(h.digest(), ContentHasher::kOffsetBasis);
  EXPECT_EQ(h.digest(), 0xcbf29ce484222325ull);
}

TEST(ContentHasher, GoldenFieldSequence) {
  ContentHasher h;
  h.str("abc");
  h.i64(-7);
  h.u64(42);
  h.f64(1.5);
  h.boolean(true);
  EXPECT_EQ(h.digest(), 0x66f25e327f06f193ull);
}

TEST(ContentHasher, SeparatorPreventsFieldAliasing) {
  ContentHasher a, b;
  a.str("ab");
  a.str("c");
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ContentHasher, DoublesUseShortestRoundTrip) {
  // %.17g renders distinct doubles distinctly.
  ContentHasher a, b;
  a.f64(1.0);
  b.f64(1.0 + 1e-15);
  EXPECT_NE(a.digest(), b.digest());
  // Equal values hash equally however they were computed.
  ContentHasher c, d;
  c.f64(0.1 + 0.2);
  d.f64(0.30000000000000004);
  EXPECT_EQ(c.digest(), d.digest());
}

TEST(ContentHasher, RawBytes) {
  const unsigned char data[] = {0x00, 0xff, 0x10};
  ContentHasher a, b;
  a.raw(data, sizeof data);
  b.raw(data, 2);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(DeviceSpecHash, GoldenValues) {
  // The GTX value is embedded in bench/baselines/*.json provenance; all
  // three differ pairwise (classes never share cache keys).
  EXPECT_EQ(device_spec_hash(DeviceSpec::geforce_8800_gtx()),
            0x49713251bef418e2ull);
  EXPECT_EQ(device_spec_hash(DeviceSpec::geforce_8800_ultra()),
            0xaae4aab2ccc169baull);
  EXPECT_EQ(device_spec_hash(DeviceSpec::geforce_8800_gts()),
            0xb17026141504ba23ull);
}

TEST(LaunchConfigHash, GoldenValues) {
  EXPECT_EQ(launch_config_hash(LaunchConfig{}), 0x0ce5207098f08100ull);
  LaunchConfig matmul;
  matmul.grid_x = matmul.grid_y = 8;
  matmul.block_x = matmul.block_y = 16;
  matmul.regs_per_thread = 9;
  EXPECT_EQ(launch_config_hash(matmul), 0x4adb0408c905cd98ull);
}

TEST(LaunchConfigHash, EveryFieldContributes) {
  const LaunchConfig base;
  const std::uint64_t h0 = launch_config_hash(base);
  LaunchConfig c = base;
  c.grid_y = 2;
  EXPECT_NE(launch_config_hash(c), h0);
  c = base;
  c.block_z = 2;
  EXPECT_NE(launch_config_hash(c), h0);
  c = base;
  c.sample_blocks = 8;
  EXPECT_NE(launch_config_hash(c), h0);
  c = base;
  c.functional = false;
  EXPECT_NE(launch_config_hash(c), h0);
}

TEST(LaunchConfigHash, Helpers) {
  LaunchConfig c;
  c.grid_x = 4;
  c.grid_y = 3;
  c.block_x = 16;
  c.block_y = 8;
  c.block_z = 2;
  EXPECT_EQ(c.total_blocks(), 12u);
  EXPECT_EQ(c.threads_per_block(), 256u);
}

}  // namespace
}  // namespace g80
