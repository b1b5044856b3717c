// g80serve wire protocol: line-delimited JSON over an AF_UNIX stream socket.
//
// Each request and each response is one JSON object on one '\n'-terminated
// line.  Requests carry an `op` plus a client-chosen `id`; responses echo
// the `id` so clients may pipeline.  Job responses look like
//
//   {"id":7,"status":"ok","source":"cache_mem","result":{...}}
//   {"id":8,"status":"invalid_configuration","error":"block exceeds ..."}
//
// where `result` is the cached unit: the server stores that object's exact
// serialization in the result cache and splices it back verbatim on a hit
// (JsonWriter::raw), so `result` on a warm response is byte-identical to the
// cold simulation's.  Everything outside `result` (id, source, timestamps a
// future version might add) is per-response and never cached.
//
// docs/serving.md is the normative protocol description; this header is the
// single in-tree definition of the ops, field names and status tokens.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/content_hash.h"
#include "common/error.h"
#include "common/json.h"

namespace g80::serve {

// Bumped whenever the meaning of a cached result changes (kernel semantics,
// timing model, result payload schema).  Part of every cache key, so stale
// on-disk entries from an older model silently become misses.
inline constexpr int kModelVersion = 2;
inline constexpr int kProtocolVersion = 1;

enum class Op {
  kPing,      // liveness probe; responds immediately from the session layer
  kHello,     // names the session; returns session id + server versions
  kLaunch,    // run one kernel job (or serve it from the result cache)
  kAutotune,  // sweep matmul variants/tiles, return the modeled-time winner
  kProfile,   // launch with g80prof attached, return counters too
  kStats,     // server + session counters (queue depth, cache, ledger)
  kMetrics,   // g80obs metrics snapshot (counters, gauges, histograms)
  kTraces,    // g80obs finished-request trace ring
  kShutdown,  // stop the daemon
};

std::string_view op_name(Op op);
// Throws StatusError(kInvalidValue) for unknown op strings.
Op op_from_name(std::string_view name);

// snake_case protocol tokens for g80::Status ("ok", "not_ready",
// "invalid_configuration", ...).  status_name() strings contain spaces and
// are for humans; these are for the wire and for scripts.
std::string_view status_token(Status s);
Status status_from_token(std::string_view token);

// Deterministic fault requested by a job — the serve-level face of the
// sanitizer's FaultInjection plus the resilience watchdog.  Faulty jobs are
// how the isolation soak test provokes per-session errors on shared devices.
struct FaultSpec {
  // "" (none), "oob_store" (kInvalidAddress from the sanitize pass),
  // "skip_barrier" (kBarrierDivergence; needs a __syncthreads kernel),
  // "modeled_timeout" (kTimeout from the modeled watchdog).
  std::string kind;

  bool enabled() const { return !kind.empty(); }
};

// Optional per-job overrides of the canonical launch configuration the
// server derives from the kernel parameters.  Absent fields keep the
// canonical value; the *resolved* LaunchConfig is what enters the cache key.
struct ConfigOverrides {
  std::optional<std::uint32_t> grid_x, grid_y;
  std::optional<std::uint32_t> block_x, block_y, block_z;
  std::optional<int> regs_per_thread;
  std::optional<int> sample_blocks;
  std::optional<bool> functional;

  void apply(LaunchConfig& c) const;
};

// One parsed request line.  Fields beyond `op`/`id` are meaningful only for
// job ops (launch/autotune/profile).
struct JobRequest {
  Op op = Op::kPing;
  std::int64_t id = 0;

  std::string kernel;                // "saxpy" | "matmul"
  std::string device_class = "gtx";  // "gtx" | "ultra" | "gts"
  std::int64_t n = 0;                // problem size (elements / matrix dim)
  std::int64_t seed = 1;             // workload generator seed
  std::int64_t tile = 16;            // matmul tile width
  std::string variant = "tiled";     // matmul variant (MatmulConfig names)
  ConfigOverrides config;
  FaultSpec fault;
  bool no_cache = false;  // bypass the result cache for this job

  // hello
  std::string client_name;
};

// Parses one request document.  Unknown ops, wrong-typed fields and
// out-of-range values throw StatusError(kInvalidValue) with a message
// suitable for the response's `error` field.
JobRequest parse_request(const JsonValue& doc);

// Serializes a request (the client library's encoder; inverse of
// parse_request for every field the protocol defines).
std::string encode_request(const JobRequest& req);

// Blocking line-framed IO over a connected stream socket.  Writes append
// '\n'; reads strip it.  Both directions throw g80::Error on EOF mid-line
// or socket errors; read_line returns false on clean EOF at a line boundary.
class LineSocket {
 public:
  explicit LineSocket(int fd) : fd_(fd) {}
  ~LineSocket();
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  bool read_line(std::string& out);
  void write_line(std::string_view line);

  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buf_;
};

// Connects to a g80served unix socket; throws g80::Error on failure.
int connect_unix(const std::string& path);
// Binds + listens on `path` (unlinking any stale socket first); throws on
// failure.  Paths are limited to sizeof(sockaddr_un::sun_path) - 1 bytes.
int listen_unix(const std::string& path, int backlog = 128);

}  // namespace g80::serve
