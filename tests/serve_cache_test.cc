// ResultCache semantics: LRU bounds, hit/miss/eviction counters, the
// on-disk tier (atomic writes, cross-instance reload, promotion into
// memory), and payload fidelity — the cache must return the exact bytes it
// was given, because g80serve splices them verbatim into responses.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "serve/cache.h"

namespace g80::serve {
namespace {

// A fresh directory under /tmp, removed with everything in it when the
// guard goes out of scope.  Declare it before any cache that writes there.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/g80cacheXXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    if (dir != nullptr) path = dir;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

TEST(ResultCache, MissThenHit) {
  ResultCache cache(4);
  std::string payload;
  EXPECT_EQ(cache.lookup(1, payload), ResultCache::Tier::kMiss);
  cache.store(1, "{\"x\":1}");
  EXPECT_EQ(cache.lookup(1, payload), ResultCache::Tier::kMemory);
  EXPECT_EQ(payload, "{\"x\":1}");
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.mem_hits, 1u);
  EXPECT_EQ(c.stores, 1u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.lookups(), 2u);
}

TEST(ResultCache, LruEvictionOrder) {
  ResultCache cache(2);
  cache.store(1, "one");
  cache.store(2, "two");
  std::string payload;
  // Touch 1 so 2 becomes the LRU entry.
  EXPECT_EQ(cache.lookup(1, payload), ResultCache::Tier::kMemory);
  cache.store(3, "three");
  EXPECT_EQ(cache.mem_entries(), 2u);
  EXPECT_EQ(cache.lookup(2, payload), ResultCache::Tier::kMiss);
  EXPECT_EQ(cache.lookup(1, payload), ResultCache::Tier::kMemory);
  EXPECT_EQ(cache.lookup(3, payload), ResultCache::Tier::kMemory);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, StoreIsIdempotent) {
  ResultCache cache(4);
  cache.store(7, "payload");
  cache.store(7, "payload");
  EXPECT_EQ(cache.mem_entries(), 1u);
  EXPECT_EQ(cache.counters().stores, 2u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(ResultCache, DiskTierSurvivesInstanceAndEviction) {
  const TempDir tmp;
  const std::string& dir = tmp.path;
  std::string payload;
  {
    ResultCache cache(1, dir);
    cache.store(10, "ten");
    cache.store(11, "eleven");  // evicts 10 from memory, not from disk
    EXPECT_EQ(cache.lookup(10, payload), ResultCache::Tier::kDisk);
    EXPECT_EQ(payload, "ten");
    // The disk hit promoted 10; 11 was evicted in turn.
    EXPECT_EQ(cache.lookup(10, payload), ResultCache::Tier::kMemory);
  }
  // A fresh instance — a daemon restart — reloads from disk.
  ResultCache warm(4, dir);
  EXPECT_EQ(warm.lookup(11, payload), ResultCache::Tier::kDisk);
  EXPECT_EQ(payload, "eleven");
  EXPECT_EQ(warm.counters().disk_hits, 1u);

  // Unknown keys miss both tiers.
  EXPECT_EQ(warm.lookup(999, payload), ResultCache::Tier::kMiss);
}

TEST(ResultCache, DiskFailureDegradesToMemoryAndRetriesOnRestore) {
  const TempDir tmp;
  const std::string& parent = tmp.path;
  // mkdir of the cache dir fails (ENOENT) until its parent exists.
  const std::string dir = parent + "/sub/cache";
  ResultCache cache(4, dir);
  cache.store(5, "five");  // must not throw: store runs on worker callbacks
  std::string payload;
  EXPECT_EQ(cache.lookup(5, payload), ResultCache::Tier::kMemory);
  EXPECT_EQ(payload, "five");
  EXPECT_EQ(cache.counters().disk_errors, 1u);

  // Once the disk tier becomes writable, re-storing an already-cached key
  // completes the missed disk write instead of short-circuiting on the
  // memory hit — the survives-restarts property heals itself.
  ASSERT_EQ(::mkdir((parent + "/sub").c_str(), 0755), 0);
  cache.store(5, "five");
  EXPECT_EQ(cache.counters().disk_errors, 1u);
  ResultCache warm(4, dir);
  EXPECT_EQ(warm.lookup(5, payload), ResultCache::Tier::kDisk);
  EXPECT_EQ(payload, "five");
}

TEST(ResultCache, PayloadBytesPreservedExactly) {
  const TempDir tmp;
  const std::string& dir = tmp.path;
  // Payloads with every byte class the JSON writer can emit.
  const std::string payload =
      "{\"s\":\"\\u0001\\\"quoted\\\"\",\"n\":0.0131194973402,\"b\":true}";
  {
    ResultCache cache(1, dir);
    cache.store(42, payload);
  }
  ResultCache warm(1, dir);
  std::string got;
  ASSERT_EQ(warm.lookup(42, got), ResultCache::Tier::kDisk);
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace g80::serve
