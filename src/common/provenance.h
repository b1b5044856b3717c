// Common provenance stamp for every machine-readable artifact the repo
// emits (g80prof profile JSON, Chrome traces, g80scope series, bench
// results).  A consumer diffing two artifacts — most importantly
// scripts/check_bench_regression.py — can refuse to compare numbers that
// came from different schemas, build configurations, or modeled devices.
//
// The build fields come from a header CMake configures at build time
// (common/version.h.in); the device fields are filled by the emitting layer
// from its DeviceSpec (common cannot depend on hw), typically via
// hw/device_spec.h's device_spec_hash().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"

namespace g80 {

// The host an artifact was measured on.  Artifacts that carry wall-clock
// numbers stamp it, so a reader can tell which of them are comparable.
struct HostStamp {
  int nproc = 0;             // std::thread::hardware_concurrency()
  std::string cpu_model;
  std::string build_config;  // CMAKE_BUILD_TYPE
};

struct Provenance {
  std::string schema;        // artifact kind, e.g. "g80bench-result"
  int schema_version = 1;
  std::string git_describe;  // `git describe --always --dirty --tags`
  std::string build_config;  // CMAKE_BUILD_TYPE
  std::string device;        // DeviceSpec::name; empty if not device-bound
  std::uint64_t device_spec_hash = 0;  // 0 if not device-bound
  std::optional<HostStamp> host;       // written only when set
};

// Provenance with the build-identity fields filled in and the device fields
// left empty for the caller.
Provenance build_provenance(std::string schema, int schema_version = 1);

// This process's host: its CPU count, the first "model name" of
// /proc/cpuinfo ("unknown" where there is none), and the build's config.
HostStamp host_stamp();

// Writes `"provenance": {...}` as the next member of the currently open
// JSON object.  The spec hash renders as a hex string so no consumer ever
// rounds it through a double.
void write_provenance(JsonWriter& w, const Provenance& p);

}  // namespace g80
