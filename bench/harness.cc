#include "bench/harness.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <streambuf>

#include "common/json.h"
#include "common/provenance.h"

namespace g80::bench {

namespace {

struct NullBuf final : std::streambuf {
  int overflow(int c) override { return c; }
};

std::ostream& null_stream() {
  static NullBuf buf;
  static std::ostream os(&buf);
  return os;
}

}  // namespace

void Result::set(const std::string& key, double value) {
  for (auto& [k, v] : metrics) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(key, value);
}

Harness::Harness(int argc, char** argv, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json_ = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path_ = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed_ = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::cerr << bench_name_ << ": unknown argument '" << a << "'\n"
                << "usage: " << bench_name_
                << " [--out FILE] [--json] [--seed N]\n";
      std::exit(2);
    }
  }
}

std::ostream& Harness::human() { return json_ ? null_stream() : std::cout; }

Result& Harness::result(const std::string& name) {
  for (auto& r : results_) {
    if (r.name == name) return r;
  }
  results_.push_back({name, {}});
  return results_.back();
}

int Harness::finish(const DeviceSpec& spec) {
  JsonWriter w;
  w.begin_object();
  {
    Provenance p = build_provenance("g80bench-result");
    p.device = spec.name;
    p.device_spec_hash = device_spec_hash(spec);
    p.host = host_stamp();
    write_provenance(w, p);
  }
  w.kv("bench", bench_name_);
  w.kv("seed", seed_);
  w.key("results");
  w.begin_array();
  for (const Result& r : results_) {
    w.begin_object();
    w.kv("name", r.name);
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : r.metrics) w.kv(k.c_str(), v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string doc = w.str();

  if (!out_path_.empty()) {
    std::ofstream f(out_path_);
    if (!f) {
      std::cerr << bench_name_ << ": cannot write " << out_path_ << "\n";
      return 1;
    }
    f << doc << "\n";
  }
  if (json_) std::cout << doc << "\n";
  return 0;
}

}  // namespace g80::bench
