// g80servectl — command-line client for a running g80served.
//
//   g80servectl SOCKET ping
//   g80servectl SOCKET stats
//   g80servectl SOCKET metrics [format=prom|json]
//   g80servectl SOCKET traces [format=json|chrome]
//   g80servectl SOCKET shutdown
//   g80servectl SOCKET launch|autotune|profile kernel=saxpy n=65536
//       [seed=N] [tile=N] [variant=NAME] [device_class=gtx|ultra|gts]
//       [fault=KIND] [no_cache=1]
//
// Prints the response line (the full JSON document) to stdout; exits 0 when
// the response status is ok, 1 otherwise.  Two render exceptions:
// `metrics` defaults to Prometheus exposition text (format=json for the raw
// payload) and `traces format=chrome` emits chrome://tracing JSON — pipe it
// to a file and load it next to a g80prof kernel timeline.  The runbook
// half of docs/serving.md is written in terms of this tool;
// docs/observability.md covers the metrics and traces output.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"
#include "common/json.h"
#include "obs/export.h"
#include "serve/client.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: g80servectl SOCKET ping|stats|metrics|traces|shutdown|"
               "launch|autotune|profile [key=value ...]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string socket_path = argv[1];
  const std::string op = argv[2];

  try {
    g80::serve::JobRequest req;
    req.op = g80::serve::op_from_name(op);
    // Render format for the metrics/traces payloads; the wire payload is
    // always the same JSON, formatting happens entirely client-side.
    std::string format = req.op == g80::serve::Op::kMetrics ? "prom" : "json";
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) usage();
      const std::string key = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      if (key == "kernel") {
        req.kernel = value;
      } else if (key == "n") {
        req.n = std::atoll(value.c_str());
      } else if (key == "seed") {
        req.seed = std::atoll(value.c_str());
      } else if (key == "tile") {
        req.tile = std::atoll(value.c_str());
      } else if (key == "variant") {
        req.variant = value;
      } else if (key == "device_class") {
        req.device_class = value;
      } else if (key == "fault") {
        req.fault.kind = value;
      } else if (key == "no_cache") {
        req.no_cache = value != "0";
      } else if (key == "format" &&
                 (req.op == g80::serve::Op::kMetrics ||
                  req.op == g80::serve::Op::kTraces)) {
        format = value;
      } else {
        usage();
      }
    }

    g80::serve::Client client(socket_path, "g80servectl");
    const g80::serve::Response r = client.call(req);
    if (r.ok() && req.op == g80::serve::Op::kMetrics && format == "prom") {
      const g80::JsonValue payload = g80::JsonValue::parse(r.result_json);
      std::fputs(g80::obs::prometheus_text(payload).c_str(), stdout);
      return 0;
    }
    if (r.ok() && req.op == g80::serve::Op::kTraces && format == "chrome") {
      const g80::JsonValue payload = g80::JsonValue::parse(r.result_json);
      std::printf("%s\n",
                  g80::obs::chrome_trace_from_traces(payload).c_str());
      return 0;
    }
    std::printf("%s\n", r.doc.dump().c_str());
    return r.ok() ? 0 : 1;
  } catch (const g80::Error& e) {
    std::fprintf(stderr, "g80servectl: %s\n", e.what());
    return 1;
  }
}
