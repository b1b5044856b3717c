#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/str.h"

namespace g80::serve {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kHello: return "hello";
    case Op::kLaunch: return "launch";
    case Op::kAutotune: return "autotune";
    case Op::kProfile: return "profile";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kTraces: return "traces";
    case Op::kShutdown: return "shutdown";
  }
  return "unknown";
}

Op op_from_name(std::string_view name) {
  if (name == "ping") return Op::kPing;
  if (name == "hello") return Op::kHello;
  if (name == "launch") return Op::kLaunch;
  if (name == "autotune") return Op::kAutotune;
  if (name == "profile") return Op::kProfile;
  if (name == "stats") return Op::kStats;
  if (name == "metrics") return Op::kMetrics;
  if (name == "traces") return Op::kTraces;
  if (name == "shutdown") return Op::kShutdown;
  throw StatusError(Status::kInvalidValue, cat("unknown op \"", name, "\""));
}

std::string_view status_token(Status s) {
  switch (s) {
    case Status::kSuccess: return "ok";
    case Status::kInvalidValue: return "invalid_value";
    case Status::kMemoryAllocation: return "out_of_memory";
    case Status::kInvalidConfiguration: return "invalid_configuration";
    case Status::kLaunchOutOfResources: return "launch_out_of_resources";
    case Status::kConstantSpaceExceeded: return "constant_space_exceeded";
    case Status::kInvalidAddress: return "invalid_address";
    case Status::kBarrierDivergence: return "barrier_divergence";
    case Status::kSharedMemoryRace: return "shared_memory_race";
    case Status::kLaunchFailure: return "launch_failure";
    case Status::kInvalidResourceHandle: return "invalid_resource_handle";
    case Status::kInvalidDevice: return "invalid_device";
    case Status::kNotReady: return "not_ready";
    case Status::kNotPermitted: return "not_permitted";
    case Status::kTimeout: return "timeout";
    case Status::kRecovered: return "recovered";
  }
  return "unknown";
}

Status status_from_token(std::string_view token) {
  for (const Status s :
       {Status::kSuccess, Status::kInvalidValue, Status::kMemoryAllocation,
        Status::kInvalidConfiguration, Status::kLaunchOutOfResources,
        Status::kConstantSpaceExceeded, Status::kInvalidAddress,
        Status::kBarrierDivergence, Status::kSharedMemoryRace,
        Status::kLaunchFailure, Status::kInvalidResourceHandle,
        Status::kInvalidDevice, Status::kNotReady, Status::kNotPermitted,
        Status::kTimeout, Status::kRecovered}) {
    if (token == status_token(s)) return s;
  }
  throw StatusError(Status::kInvalidValue,
                    cat("unknown status token \"", token, "\""));
}

void ConfigOverrides::apply(LaunchConfig& c) const {
  if (grid_x) c.grid_x = *grid_x;
  if (grid_y) c.grid_y = *grid_y;
  if (block_x) c.block_x = *block_x;
  if (block_y) c.block_y = *block_y;
  if (block_z) c.block_z = *block_z;
  if (regs_per_thread) c.regs_per_thread = *regs_per_thread;
  if (sample_blocks) c.sample_blocks = *sample_blocks;
  if (functional) c.functional = *functional;
}

namespace {

std::int64_t require_int(const JsonValue& doc, std::string_view key,
                         std::int64_t lo, std::int64_t hi,
                         std::int64_t fallback) {
  const JsonValue* v = doc.get(key);
  if (v == nullptr) return fallback;
  std::int64_t x = 0;
  try {
    x = v->as_int();
  } catch (const Error& e) {
    throw StatusError(Status::kInvalidValue,
                      cat("field \"", key, "\": ", e.what()));
  }
  if (x < lo || x > hi) {
    throw StatusError(Status::kInvalidValue,
                      cat("field \"", key, "\" = ", x, " out of range [", lo,
                          ", ", hi, "]"));
  }
  return x;
}

std::optional<std::uint32_t> opt_u32(const JsonValue& doc,
                                     std::string_view key) {
  if (doc.get(key) == nullptr) return std::nullopt;
  return static_cast<std::uint32_t>(require_int(doc, key, 1, 1u << 20, 1));
}

}  // namespace

JobRequest parse_request(const JsonValue& doc) {
  if (!doc.is_object()) {
    throw StatusError(Status::kInvalidValue, "request must be a JSON object");
  }
  JobRequest req;
  req.op = op_from_name(doc.require("op").as_string());
  req.id = require_int(doc, "id", 0, INT64_MAX, 0);
  req.client_name = doc.get_string("client", "");

  if (req.op != Op::kLaunch && req.op != Op::kAutotune &&
      req.op != Op::kProfile) {
    return req;
  }

  req.kernel = doc.require("kernel").as_string();
  if (req.kernel != "saxpy" && req.kernel != "matmul") {
    throw StatusError(Status::kInvalidValue,
                      cat("unknown kernel \"", req.kernel, "\""));
  }
  req.device_class = doc.get_string("device_class", "gtx");
  if (req.device_class != "gtx" && req.device_class != "ultra" &&
      req.device_class != "gts") {
    throw StatusError(Status::kInvalidValue,
                      cat("unknown device_class \"", req.device_class, "\""));
  }
  req.n = require_int(doc, "n", 1, 1 << 24, 0);
  if (req.n == 0) {
    throw StatusError(Status::kInvalidValue, "job needs a positive \"n\"");
  }
  req.seed = require_int(doc, "seed", 0, INT64_MAX, 1);
  req.tile = require_int(doc, "tile", 2, 64, 16);
  req.variant = doc.get_string("variant", "tiled");
  req.no_cache = doc.get_bool("no_cache", false);

  if (const JsonValue* c = doc.get("config")) {
    if (!c->is_object()) {
      throw StatusError(Status::kInvalidValue, "\"config\" must be an object");
    }
    req.config.grid_x = opt_u32(*c, "grid_x");
    req.config.grid_y = opt_u32(*c, "grid_y");
    req.config.block_x = opt_u32(*c, "block_x");
    req.config.block_y = opt_u32(*c, "block_y");
    req.config.block_z = opt_u32(*c, "block_z");
    if (c->get("regs_per_thread") != nullptr) {
      req.config.regs_per_thread =
          static_cast<int>(require_int(*c, "regs_per_thread", 1, 256, 10));
    }
    if (c->get("sample_blocks") != nullptr) {
      // 0 is a valid request: "no modeled timing" — the launch traces no
      // block and runs only the functional sweep (see LaunchOptions).
      req.config.sample_blocks =
          static_cast<int>(require_int(*c, "sample_blocks", 0, 1024, 4));
    }
    if (const JsonValue* f = c->get("functional")) {
      req.config.functional = f->as_bool();
    }
  }

  if (const JsonValue* f = doc.get("fault")) {
    if (!f->is_object()) {
      throw StatusError(Status::kInvalidValue, "\"fault\" must be an object");
    }
    req.fault.kind = f->get_string("kind", "");
    if (req.fault.kind != "" && req.fault.kind != "oob_store" &&
        req.fault.kind != "skip_barrier" &&
        req.fault.kind != "modeled_timeout") {
      throw StatusError(Status::kInvalidValue,
                        cat("unknown fault kind \"", req.fault.kind, "\""));
    }
  }
  return req;
}

std::string encode_request(const JobRequest& req) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", op_name(req.op));
  w.kv("id", static_cast<std::uint64_t>(req.id));
  if (!req.client_name.empty()) w.kv("client", req.client_name);
  if (req.op == Op::kLaunch || req.op == Op::kAutotune ||
      req.op == Op::kProfile) {
    w.kv("kernel", req.kernel);
    w.kv("device_class", req.device_class);
    w.kv("n", static_cast<std::uint64_t>(req.n));
    w.kv("seed", static_cast<std::uint64_t>(req.seed));
    if (req.kernel == "matmul") {
      w.kv("tile", static_cast<std::uint64_t>(req.tile));
      w.kv("variant", req.variant);
    }
    if (req.no_cache) w.kv("no_cache", true);
    const ConfigOverrides& c = req.config;
    if (c.grid_x || c.grid_y || c.block_x || c.block_y || c.block_z ||
        c.regs_per_thread || c.sample_blocks || c.functional) {
      w.key("config");
      w.begin_object();
      if (c.grid_x) w.kv("grid_x", static_cast<std::uint64_t>(*c.grid_x));
      if (c.grid_y) w.kv("grid_y", static_cast<std::uint64_t>(*c.grid_y));
      if (c.block_x) w.kv("block_x", static_cast<std::uint64_t>(*c.block_x));
      if (c.block_y) w.kv("block_y", static_cast<std::uint64_t>(*c.block_y));
      if (c.block_z) w.kv("block_z", static_cast<std::uint64_t>(*c.block_z));
      if (c.regs_per_thread) w.kv("regs_per_thread", *c.regs_per_thread);
      if (c.sample_blocks) w.kv("sample_blocks", *c.sample_blocks);
      if (c.functional) w.kv("functional", *c.functional);
      w.end_object();
    }
    if (req.fault.enabled()) {
      w.key("fault");
      w.begin_object();
      w.kv("kind", req.fault.kind);
      w.end_object();
    }
  }
  w.end_object();
  return w.str();
}

LineSocket::~LineSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineSocket::read_line(std::string& out) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got == 0) {
      if (!buf_.empty()) throw Error("g80serve: connection closed mid-line");
      return false;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      throw Error(cat("g80serve: recv failed: ", std::strerror(errno)));
    }
    buf_.append(chunk, static_cast<std::size_t>(got));
  }
}

void LineSocket::write_line(std::string_view line) {
  std::string framed(line);
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t sent =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw Error(cat("g80serve: send failed: ", std::strerror(errno)));
    }
    off += static_cast<std::size_t>(sent);
  }
}

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error(cat("g80serve: socket path too long (", path.size(), " >= ",
                    sizeof addr.sun_path, "): ", path));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(cat("g80serve: socket: ", std::strerror(errno)));
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(fd);
    throw Error(cat("g80serve: connect ", path, ": ", std::strerror(err)));
  }
  return fd;
}

int listen_unix(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(cat("g80serve: socket: ", std::strerror(errno)));
  const sockaddr_un addr = make_addr(path);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error(cat("g80serve: bind ", path, ": ", std::strerror(err)));
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error(cat("g80serve: listen ", path, ": ", std::strerror(err)));
  }
  return fd;
}

}  // namespace g80::serve
