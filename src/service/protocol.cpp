#include "service/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tadfa::service {
namespace {

/// Outcome of a read_exact: how many bytes arrived and why it stopped
/// short (fd receive deadline vs. hard error; EOF is just a short count
/// with neither flag set).
struct ReadOutcome {
  std::size_t got = 0;
  bool timed_out = false;
  bool hard_error = false;
};

/// Reads exactly `n` bytes unless the peer closes first, the fd's
/// SO_RCVTIMEO deadline expires, or a hard error hits.
ReadOutcome read_exact(int fd, char* buf, std::size_t n) {
  ReadOutcome out;
  while (out.got < n) {
    const ssize_t r = ::recv(fd, buf + out.got, n - out.got, 0);
    if (r > 0) {
      out.got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      break;  // peer closed
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      out.timed_out = true;
      break;
    }
    out.hard_error = true;
    break;
  }
  return out;
}

/// Writes all of `data`. MSG_NOSIGNAL: a vanished peer must surface as
/// EPIPE, not kill the server with SIGPIPE.
bool write_all(int fd, std::string_view data, std::string* error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (error != nullptr) {
      *error = std::string("write failed: ") + std::strerror(errno);
    }
    return false;
  }
  return true;
}

void serialize_pass_stats(ByteWriter& w,
                          const std::vector<pipeline::PassRunStats>& stats) {
  w.u64(stats.size());
  for (const pipeline::PassRunStats& s : stats) {
    w.str(s.name);
    w.f64(s.seconds);
    w.str(s.summary);
    w.boolean(s.changed);
    w.u64(s.instructions_after);
    w.u32(s.vregs_after);
  }
}

std::vector<pipeline::PassRunStats> deserialize_pass_stats(ByteReader& r) {
  std::vector<pipeline::PassRunStats> stats;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    pipeline::PassRunStats s;
    s.name = r.str();
    s.seconds = r.f64();
    s.summary = r.str();
    s.changed = r.boolean();
    s.instructions_after = r.u64();
    s.vregs_after = r.u32();
    stats.push_back(std::move(s));
  }
  return stats;
}

void serialize_analysis_stats(
    ByteWriter& w,
    const std::vector<pipeline::AnalysisManager::AnalysisStats>& stats) {
  w.u64(stats.size());
  for (const auto& s : stats) {
    w.str(s.name);
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.puts);
    w.u64(s.invalidations);
  }
}

std::vector<pipeline::AnalysisManager::AnalysisStats>
deserialize_analysis_stats(ByteReader& r) {
  std::vector<pipeline::AnalysisManager::AnalysisStats> stats;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    pipeline::AnalysisManager::AnalysisStats s;
    s.name = r.str();
    s.hits = r.u64();
    s.misses = r.u64();
    s.puts = r.u64();
    s.invalidations = r.u64();
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace

// --- CompileRequest ----------------------------------------------------------

void CompileRequest::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(MessageType::kCompileRequest));
  w.str(spec);
  w.boolean(checkpoints);
  w.boolean(analysis_cache);
  w.u64(kernels.size());
  for (const std::string& kernel : kernels) {
    w.str(kernel);
  }
  w.str(module_text);
  w.boolean(edit_aware);
  w.str(frontend);
  w.str(machine);
}

std::optional<CompileRequest> CompileRequest::deserialize(ByteReader& r) {
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kCompileRequest)) {
    return std::nullopt;
  }
  CompileRequest request;
  request.spec = r.str();
  request.checkpoints = r.boolean();
  request.analysis_cache = r.boolean();
  const std::uint64_t num_kernels = r.u64();
  for (std::uint64_t i = 0; i < num_kernels && r.ok(); ++i) {
    request.kernels.push_back(r.str());
  }
  request.module_text = r.str();
  request.edit_aware = r.boolean();
  request.frontend = r.str();
  request.machine = r.str();
  if (!r.ok() || r.remaining() != 0) {
    return std::nullopt;
  }
  return request;
}

// --- CompileResponse ---------------------------------------------------------

std::size_t CompileResponse::cache_hits() const {
  std::size_t hits = 0;
  for (const FunctionResult& f : functions) {
    hits += f.from_cache ? 1 : 0;
  }
  return hits;
}

double CompileResponse::cache_hit_rate() const {
  return functions.empty()
             ? 0.0
             : static_cast<double>(cache_hits()) /
                   static_cast<double>(functions.size());
}

std::size_t CompileResponse::prefix_hits() const {
  std::size_t hits = 0;
  for (const FunctionResult& f : functions) {
    hits += f.resumed_passes > 0 ? 1 : 0;
  }
  return hits;
}

std::size_t CompileResponse::passes_skipped() const {
  std::size_t skipped = 0;
  for (const FunctionResult& f : functions) {
    skipped += f.resumed_passes;
  }
  return skipped;
}

void CompileResponse::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(MessageType::kCompileResponse));
  w.boolean(ok);
  w.u8(static_cast<std::uint8_t>(code));
  w.str(error);
  w.u64(functions.size());
  for (const FunctionResult& f : functions) {
    w.str(f.name);
    w.boolean(f.ok);
    w.str(f.error);
    w.boolean(f.from_cache);
    w.u32(f.resumed_passes);
    w.str(f.printed);
    w.u64(f.instructions);
    w.u32(f.vregs);
    w.u32(f.spilled_regs);
    w.f64(f.seconds);
    w.u8(static_cast<std::uint8_t>(f.invalidation));
    w.str(f.invalidated_via);
  }
  serialize_pass_stats(w, pass_stats);
  serialize_analysis_stats(w, analysis_stats);
  w.boolean(cache_attached);
  w.u64(cache.hits);
  w.u64(cache.misses);
  w.u64(cache.stores);
  w.u64(cache.bad_entries);
  w.u64(cache.evictions);
  w.u64(cache.store_failures);
  w.u64(cache.lookup_faults);
  w.u64(cache.stage_hits);
  w.u64(cache.stage_misses);
  w.u64(cache.stage_stores);
  w.f64(server_seconds);
}

std::optional<CompileResponse> CompileResponse::deserialize(ByteReader& r) {
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kCompileResponse)) {
    return std::nullopt;
  }
  CompileResponse response;
  response.ok = r.boolean();
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(ResponseCode::kVersionMismatch)) {
    return std::nullopt;
  }
  response.code = static_cast<ResponseCode>(code);
  response.error = r.str();
  const std::uint64_t num_functions = r.u64();
  for (std::uint64_t i = 0; i < num_functions && r.ok(); ++i) {
    FunctionResult f;
    f.name = r.str();
    f.ok = r.boolean();
    f.error = r.str();
    f.from_cache = r.boolean();
    f.resumed_passes = r.u32();
    f.printed = r.str();
    f.instructions = r.u64();
    f.vregs = r.u32();
    f.spilled_regs = r.u32();
    f.seconds = r.f64();
    const std::uint8_t reason = r.u8();
    if (reason > static_cast<std::uint8_t>(pipeline::kMaxInvalidationReason)) {
      return std::nullopt;
    }
    f.invalidation = static_cast<pipeline::InvalidationReason>(reason);
    f.invalidated_via = r.str();
    response.functions.push_back(std::move(f));
  }
  response.pass_stats = deserialize_pass_stats(r);
  response.analysis_stats = deserialize_analysis_stats(r);
  response.cache_attached = r.boolean();
  response.cache.hits = r.u64();
  response.cache.misses = r.u64();
  response.cache.stores = r.u64();
  response.cache.bad_entries = r.u64();
  response.cache.evictions = r.u64();
  response.cache.store_failures = r.u64();
  response.cache.lookup_faults = r.u64();
  response.cache.stage_hits = r.u64();
  response.cache.stage_misses = r.u64();
  response.cache.stage_stores = r.u64();
  response.server_seconds = r.f64();
  if (!r.ok() || r.remaining() != 0) {
    return std::nullopt;
  }
  return response;
}

std::string_view response_code_name(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "OK";
    case ResponseCode::kError:
      return "ERROR";
    case ResponseCode::kBusy:
      return "BUSY";
    case ResponseCode::kTimeout:
      return "TIMEOUT";
    case ResponseCode::kVersionMismatch:
      return "VERSION_MISMATCH";
  }
  return "?";
}

namespace {
CompileResponse coded_response(ResponseCode code, std::string message) {
  CompileResponse response;
  response.ok = false;
  response.code = code;
  response.error = std::move(message);
  return response;
}
}  // namespace

CompileResponse error_response(std::string message) {
  return coded_response(ResponseCode::kError, std::move(message));
}

CompileResponse busy_response(std::string message) {
  return coded_response(ResponseCode::kBusy, std::move(message));
}

CompileResponse timeout_response(std::string message) {
  return coded_response(ResponseCode::kTimeout, std::move(message));
}

CompileResponse version_mismatch_response(std::uint32_t peer_version) {
  return coded_response(
      ResponseCode::kVersionMismatch,
      "protocol version mismatch: peer speaks v" +
          std::to_string(peer_version) + ", this build speaks v" +
          std::to_string(kProtocolVersion) +
          " — upgrade the older side; mixed versions cannot share a wire");
}

// --- Framing -----------------------------------------------------------------

bool write_frame(int fd, std::string_view payload, std::string* error) {
  ByteWriter header;
  header.u32(kFrameMagic);
  header.u32(kProtocolVersion);
  header.u64(payload.size());
  if (!write_all(fd, header.data(), error)) {
    return false;
  }
  return write_all(fd, payload, error);
}

FrameStatus read_frame(int fd, std::string* payload, std::string* error,
                       std::uint32_t* peer_version) {
  char header[16];
  const ReadOutcome head = read_exact(fd, header, sizeof(header));
  if (head.got == 0 && !head.hard_error) {
    // Nothing of the next frame arrived: a clean close, or (under an
    // I/O deadline) an idle connection — not a protocol violation.
    return head.timed_out ? FrameStatus::kIdle : FrameStatus::kClosed;
  }
  if (head.got != sizeof(header)) {
    if (head.timed_out) {
      *error = "peer stalled mid-frame: " + std::to_string(head.got) +
               " of 16 header bytes before the I/O deadline";
      return FrameStatus::kTimeout;
    }
    *error = head.hard_error
                 ? std::string("read failed: ") + std::strerror(errno)
                 : "truncated frame header";
    return FrameStatus::kError;
  }
  ByteReader r(std::string_view(header, sizeof(header)));
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  const std::uint64_t length = r.u64();
  if (magic != kFrameMagic) {
    *error = "bad frame magic (not a tadfa service client?)";
    return FrameStatus::kError;
  }
  if (version != kProtocolVersion) {
    // The frame header layout is stable across versions, so the
    // mismatch is trustworthy — but the payload encoding is not, so it
    // is not consumed. The caller answers with a structured
    // version_mismatch_response and hangs up.
    if (peer_version != nullptr) {
      *peer_version = version;
    }
    *error = "protocol version mismatch: peer speaks v" +
             std::to_string(version) + ", this build speaks v" +
             std::to_string(kProtocolVersion);
    return FrameStatus::kVersionMismatch;
  }
  if (length > kMaxFrameBytes) {
    *error = "frame of " + std::to_string(length) +
             " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
             "-byte limit";
    return FrameStatus::kError;
  }
  payload->resize(length);
  if (length != 0) {
    const ReadOutcome body = read_exact(fd, payload->data(), length);
    if (body.got != length) {
      if (body.timed_out) {
        *error = "peer stalled mid-frame: " + std::to_string(body.got) +
                 " of " + std::to_string(length) +
                 " payload bytes before the I/O deadline";
        return FrameStatus::kTimeout;
      }
      *error = body.hard_error
                   ? std::string("read failed: ") + std::strerror(errno)
                   : "frame truncated: announced " + std::to_string(length) +
                         " payload bytes, got " + std::to_string(body.got);
      return FrameStatus::kError;
    }
  }
  return FrameStatus::kOk;
}

bool write_request(int fd, const CompileRequest& request, std::string* error) {
  ByteWriter w;
  request.serialize(w);
  return write_frame(fd, w.data(), error);
}

bool write_response(int fd, const CompileResponse& response,
                    std::string* error) {
  ByteWriter w;
  response.serialize(w);
  return write_frame(fd, w.data(), error);
}

std::optional<CompileResponse> read_response(int fd, std::string* error) {
  std::string payload;
  const FrameStatus status = read_frame(fd, &payload, error);
  if (status == FrameStatus::kClosed) {
    *error = "server closed the connection before responding";
    return std::nullopt;
  }
  if (status == FrameStatus::kIdle || status == FrameStatus::kTimeout) {
    *error = "server did not respond before the I/O deadline";
    return std::nullopt;
  }
  if (status != FrameStatus::kOk) {
    // kVersionMismatch lands here too: read_frame already formatted the
    // both-versions message into `error`.
    return std::nullopt;
  }
  ByteReader r(payload);
  auto response = CompileResponse::deserialize(r);
  if (!response.has_value()) {
    *error = "undecodable response payload";
  }
  return response;
}

int connect_unix(const std::string& socket_path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + socket_path;
    }
    return -1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket failed: ") + std::strerror(errno);
    }
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "cannot connect to '" + socket_path +
               "': " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace tadfa::service
