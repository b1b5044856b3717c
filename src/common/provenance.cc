#include "common/provenance.h"

#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "common/version.h"  // configured from version.h.in

namespace g80 {

Provenance build_provenance(std::string schema, int schema_version) {
  Provenance p;
  p.schema = std::move(schema);
  p.schema_version = schema_version;
  p.git_describe = G80_GIT_DESCRIBE;
  p.build_config = G80_BUILD_CONFIG;
  return p;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

HostStamp host_stamp() {
  return {static_cast<int>(std::thread::hardware_concurrency()), cpu_model(),
          G80_BUILD_CONFIG};
}

void write_provenance(JsonWriter& w, const Provenance& p) {
  char hash[2 + 16 + 1] = "";
  if (p.device_spec_hash != 0) {
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(p.device_spec_hash));
  }
  w.key("provenance")
      .begin_object()
      .kv("schema", p.schema)
      .kv("schema_version", p.schema_version)
      .kv("git_describe", p.git_describe)
      .kv("build_config", p.build_config)
      .kv("device", p.device)
      .kv("device_spec_hash", static_cast<const char*>(hash));
  if (p.host) {
    w.key("host")
        .begin_object()
        .kv("nproc", p.host->nproc)
        .kv("cpu_model", p.host->cpu_model)
        .kv("build_config", p.host->build_config)
        .end_object();
  }
  w.end_object();
}

}  // namespace g80
