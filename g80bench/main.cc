// g80bench: the g80sim benchmark.
//
//   g80bench --workload <matmul512|checked|suite13|serve_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs the workload once untraced and once traced (the difference
// is the tracing overhead), then the layer panel under the tracer, reports
// the per-layer metrics and each layer's self time, and writes the spans as
// a chrome-trace file.  Every run stamps a host fingerprint, writes a
// result file into --out-dir, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any output check failed, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "common/provenance.h"
#include "parts.h"

namespace g80::bench {
namespace {

using WorkloadFn = void (*)(const RunConfig&, Tracer*, Outcome&);

const std::map<std::string, WorkloadFn> kWorkloads = {
    {"matmul512", run_matmul512},
    {"checked", run_checked},
    {"suite13", run_suite13},
    {"serve_mix", run_serve_mix},
};

// Layers whose self time the traced run reports; the panel opens spans in
// every one of them.
const char* const kLayers[] = {"apps", "bench", "cudalite", "exec",
                               "obs",  "sanitizer", "serve", "timing"};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Host fingerprint: results whose fingerprints differ are not comparable
// (compare.py refuses).  git_describe identifies the code, not the host,
// and is recorded but not compared.
std::string fingerprint_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  JsonWriter w;
  w.begin_object()
      .kv("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .kv("cpu_model", cpu_model())
      .kv("build_type", G80BENCH_BUILD_TYPE)
      .kv("compiler", compiler)
      .kv("git_describe", build_provenance("g80bench-result").git_describe)
      .end_object();
  return w.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream s;
  s << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s << (i > 0 ? ", " : "") << "\"" << json_escape(ms[i].name)
      << "\": {\"value\": " << full(ms[i].value) << ", \"unit\": \""
      << json_escape(ms[i].unit) << "\"}";
  }
  s << "}";
  return s.str();
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const auto& m : ms) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
}

int usage(const std::string& why) {
  std::cerr << "g80bench: " << why
            << "\nusage: g80bench --workload <matmul512|checked|suite13|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

int bench_main(int argc, char** argv) {
  std::map<std::string, std::string> args = {{"--seed", "1"},
                                             {"--seconds", "10"},
                                             {"--trace", "0"},
                                             {"--out-dir", ".bench_out"}};
  if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) != "--workload" && args.count(argv[i]) == 0)
      return usage(std::string("unknown flag ") + argv[i]);
    args[argv[i]] = argv[i + 1];
  }
  const auto wl = kWorkloads.find(args["--workload"]);
  if (wl == kWorkloads.end())
    return usage("unknown workload '" + args["--workload"] + "'");
  RunConfig rc;
  bool traced = false;
  try {
    rc.seed = std::stoull(args["--seed"]);
    rc.seconds = std::stod(args["--seconds"]);
    traced = std::stoi(args["--trace"]) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  const std::string out_dir = args["--out-dir"];
  std::filesystem::create_directories(out_dir);
  // Relative, so it stays within sockaddr_un's path limit.
  rc.socket = out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  const std::string fp = fingerprint_json();
  std::cout << "fingerprint: " << fp << "\n"
            << "workload: " << wl->first << "  seed: " << rc.seed
            << "  seconds: " << rc.seconds << "  trace: " << traced << "\n"
            << std::flush;

  Outcome out;
  // A library error that escapes a workload fails the run, with a result.
  const auto guarded = [&](const auto& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      out.check(false, std::string("uncaught: ") + e.what());
    }
  };
  std::vector<std::pair<std::string, double>> self;
  if (!traced) {
    guarded([&] { wl->second(rc, nullptr, out); });
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // One untraced and one traced op of the workload give the tracing
    // overhead; then every layer's panel under the tracer.
    RunConfig pair = rc;
    pair.seconds = std::min(rc.seconds, 4.0);
    pair.setup_reps = 1;
    pair.setup_budget_s = 0;
    pair.min_ops = 1;
    Outcome plain, with;
    Tracer tr;
    guarded([&] { wl->second(pair, nullptr, plain); });
    guarded([&] { wl->second(pair, &tr, with); });
    guarded([&] { run_layer_panel(rc, &tr, out); });
    out.absorb(plain);
    out.absorb(with);
    const auto op_p50 = [](const Outcome& o) {
      for (const auto& m : o.metrics)
        if (m.name == "op_p50_s") return m.value;
      return 0.0;
    };
    out.add("trace.overhead_pct", 100.0 * (op_p50(with) / op_p50(plain) - 1),
            "%");
    out.add("trace.spans", static_cast<double>(tr.spans().size()), "count");
    self = tr.self_seconds();
    for (const char* layer : kLayers) {
      double s = 0;
      for (const auto& [name, secs] : self)
        if (name == layer) s = secs;
      out.add(std::string("self.") + layer + "_s", s, "s");
    }
    const std::string trace_path = out_dir + "/trace-" + wl->first + "-seed" +
                                   std::to_string(rc.seed) + ".json";
    std::ofstream(trace_path) << tr.chrome_trace_json() << "\n";
    std::cout << "chrome trace: " << trace_path << "\n";
  }
  bool finite = true;
  for (const auto& m : out.metrics) finite = finite && std::isfinite(m.value);
  out.check(finite, "a metric is not finite");

  print_table(traced ? "per-layer metrics:" : "end-to-end metrics:",
              out.metrics);
  if (!out.named.empty()) print_table("workload figures:", out.named);
  if (traced) {
    std::cout << "layer self time (s):\n";
    for (const auto& [layer, secs] : self)
      std::cout << "  " << layer << " " << secs << "\n";
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::cout << "failed_frac: " << failed_frac << " (" << out.failed << " of "
            << out.attempted << ")\n";
  for (const auto& f : out.failures) std::cout << "FAILED: " << f << "\n";

  const bool correct = out.failed == 0 && out.attempted > 0;
  const std::string metrics = metrics_json(out.metrics);
  {
    const std::string path = out_dir + "/result-" + wl->first + "-seed" +
                             std::to_string(rc.seed) + "-trace" +
                             (traced ? "1" : "0") + ".json";
    std::ofstream result(path);
    result << "{\"fingerprint\": " << fp << ", \"workload\": \""
           << wl->first << "\", \"seed\": " << rc.seed
           << ", \"trace\": " << (traced ? 1 : 0)
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << out.attempted
           << ", \"failed\": " << out.failed << ", \"metrics\": " << metrics
           << ", \"named\": " << metrics_json(out.named) << ", \"op_s\": [";
    for (std::size_t i = 0; i < out.op_s.size(); ++i)
      result << (i > 0 ? ", " : "") << full(out.op_s[i]);
    result << "]}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace g80::bench

int main(int argc, char** argv) { return g80::bench::bench_main(argc, argv); }
