// Wire protocol of the persistent compile service (`tadfa serve`).
//
// Messages travel over a stream socket as length-prefixed frames:
//
//   [u32 magic][u32 protocol version][u64 payload bytes][payload]
//
// all little-endian via support/serialize (the same primitives the
// persistent result cache trusts). The payload is one serialized
// message, tagged by a leading MessageType byte. Framing is versioned
// independently of the cache format: kProtocolVersion is bumped on any
// wire-visible change, and a server answers a mismatched client with a
// structured error naming both versions instead of guessing at the
// bytes. A frame announcing more than kMaxFrameBytes is rejected before
// any allocation — garbage on the socket must never look like a 16 EiB
// request.
//
// The reader side is totalizing end to end: a truncated frame, a short
// payload, or trailing garbage degrades to a decode error the server
// answers with CompileResponse{ok = false, error = ...} — never a hang,
// never a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/analysis_manager.hpp"
#include "pipeline/dependency_graph.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/result_cache.hpp"
#include "support/serialize.hpp"

namespace tadfa::service {

/// "TDFA" — first four bytes of every frame.
constexpr std::uint32_t kFrameMagic = 0x41464454u;
/// Bumped on any wire-visible change to the frame or message encoding.
/// v2: FunctionResult grew resumed_passes; the response cache-stats
/// block grew the stage-entry counters (incremental compilation).
/// v3: CompileResponse grew the structured ResponseCode (OK / ERROR /
/// BUSY / TIMEOUT / VERSION_MISMATCH) that admission control keys on,
/// and a version-mismatched frame is answered with an explicit
/// VERSION_MISMATCH error frame naming both versions instead of a bare
/// framing error — a v2 client gets a structured refusal, never a hang.
/// v4: CompileRequest grew the edit_aware flag; FunctionResult grew the
/// per-function invalidation reason + via path (dependency-edge
/// invalidation), so a client can see *why* each function recompiled.
/// v5: CompileRequest grew the frontend + machine names (the frontend
/// seam and the machine matrix). Empty strings keep v4 semantics —
/// module text is canonical .tir, compiled on the server's default
/// machine — and unknown names get a structured kError naming the
/// available choices; a v4 peer still gets the version-mismatch frame.
constexpr std::uint32_t kProtocolVersion = 5;
/// Upper bound on a single frame's payload (64 MiB). A length prefix
/// beyond this is treated as a framing error, not an allocation.
constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;

enum class MessageType : std::uint8_t {
  kCompileRequest = 1,
  kCompileResponse = 2,
};

/// Structured outcome class of a CompileResponse. Ordinary failures
/// (bad spec, unknown kernel, failed pass) are kError; the other codes
/// let a client react without parsing error text: kBusy means the
/// server shed the request at admission (bounded queue full — retry
/// with backoff), kTimeout means the peer stalled past the I/O deadline
/// mid-frame, and kVersionMismatch names a peer speaking a different
/// kProtocolVersion.
enum class ResponseCode : std::uint8_t {
  kOk = 0,
  kError = 1,
  kBusy = 2,
  kTimeout = 3,
  kVersionMismatch = 4,
};

std::string_view response_code_name(ResponseCode code);

/// One compile submission: a pipeline spec plus the functions to
/// compile, named (server-side kernel suite) and/or as IR module text.
struct CompileRequest {
  /// Pipeline spec string; empty means the server's default pipeline.
  std::string spec;
  /// Verifier checkpoints between passes (the CLI's --no-verify).
  bool checkpoints = true;
  /// Analysis caching (the CLI's --no-analysis-cache).
  bool analysis_cache = true;
  /// Named kernels resolved by the server (workload::make_kernel).
  std::vector<std::string> kernels;
  /// IR module text parsed by the server; appended after the kernels.
  std::string module_text;
  /// v4: compile edit-aware — the server diffs the module against its
  /// cached dependency graph and reports per-function invalidation
  /// reasons (requires a server-side cache to have any effect).
  bool edit_aware = false;
  /// v5: frontend that parses module_text (frontend::FrontendRegistry
  /// name). Empty means "tir" — the v4 behavior. Unknown names are
  /// answered with a structured kError listing the registry.
  std::string frontend;
  /// v5: named machine config to compile on (machine::MachineRegistry
  /// name). Empty means the server's own default machine. Unknown names
  /// are answered with a structured kError listing the registry.
  std::string machine;

  void serialize(ByteWriter& w) const;
  /// nullopt on any truncation or implausibility.
  static std::optional<CompileRequest> deserialize(ByteReader& r);

  friend bool operator==(const CompileRequest&,
                         const CompileRequest&) = default;
};

/// One function's outcome inside a CompileResponse (request order).
struct FunctionResult {
  std::string name;
  bool ok = false;
  std::string error;
  /// Restored from the server's persistent result cache.
  bool from_cache = false;
  /// Passes skipped by resuming from a cached stage snapshot (0 unless
  /// the server compiles incrementally).
  std::uint32_t resumed_passes = 0;
  /// The compiled function via the canonical printer — byte-identical
  /// to a direct CompilationDriver compile of the same input.
  std::string printed;
  std::uint64_t instructions = 0;
  std::uint32_t vregs = 0;
  std::uint32_t spilled_regs = 0;
  double seconds = 0;
  /// v4: why this function was (or was not) invalidated against the
  /// server's cached dependency graph; kUnknown unless the request set
  /// edit_aware and the server compiles with a cache.
  pipeline::InvalidationReason invalidation =
      pipeline::InvalidationReason::kUnknown;
  /// v4: for kDependent, the dependency path walked to the changed
  /// function ("a -> b -> c", c edited).
  std::string invalidated_via;

  friend bool operator==(const FunctionResult&,
                         const FunctionResult&) = default;
};

struct CompileResponse {
  /// False when the request itself failed (bad spec, unknown kernel,
  /// unparsable module text, malformed frame) or any function failed.
  bool ok = false;
  /// Outcome class (v3): kOk iff `ok`; failures say *why* structurally
  /// so a client can distinguish "retry later" (kBusy) from "fix the
  /// request" (kError).
  ResponseCode code = ResponseCode::kError;
  /// Request-level structured error; per-function errors live on the
  /// FunctionResult entries.
  std::string error;
  std::vector<FunctionResult> functions;
  /// Pass statistics merged position-wise over this request's
  /// functions (same shape as ModulePipelineResult::merged_pass_stats).
  std::vector<pipeline::PassRunStats> pass_stats;
  /// Analysis-cache counters merged by name over this request.
  std::vector<pipeline::AnalysisManager::AnalysisStats> analysis_stats;
  /// Snapshot of the server's shared ResultCache counters after this
  /// request (all zeros when the server runs uncached).
  bool cache_attached = false;
  pipeline::ResultCacheStats cache;
  /// Server-side wall clock from dequeue to compiled.
  double server_seconds = 0;

  /// Functions of *this request* restored from the persistent cache.
  std::size_t cache_hits() const;
  /// cache_hits() over the function count (0 for an empty response).
  double cache_hit_rate() const;
  /// Functions of this request that resumed from a cached stage
  /// snapshot instead of compiling from pass 0.
  std::size_t prefix_hits() const;
  /// Total passes those resumes skipped.
  std::size_t passes_skipped() const;

  void serialize(ByteWriter& w) const;
  static std::optional<CompileResponse> deserialize(ByteReader& r);
};

/// Convenience: a ready error response (code kError).
CompileResponse error_response(std::string message);
/// An admission-control shed: code kBusy, retry with backoff.
CompileResponse busy_response(std::string message);
/// An I/O-deadline expiry: code kTimeout.
CompileResponse timeout_response(std::string message);
/// A structured version refusal naming both versions (kVersionMismatch).
CompileResponse version_mismatch_response(std::uint32_t peer_version);

// --- Framing over file descriptors ------------------------------------------

enum class FrameStatus {
  /// A whole frame arrived; `payload` holds its bytes.
  kOk,
  /// Clean end of stream exactly at a frame boundary.
  kClosed,
  /// Bad magic, oversize announcement, or EOF inside a frame; `error`
  /// says which. The stream can no longer be trusted.
  kError,
  /// A well-formed header announcing a different kProtocolVersion
  /// (reported via `peer_version`). The payload is NOT consumed; answer
  /// with version_mismatch_response and hang up.
  kVersionMismatch,
  /// The fd's receive deadline (SO_RCVTIMEO) expired mid-frame: the
  /// peer stalled after sending part of a header or payload. Answer
  /// with timeout_response (best effort) and hang up.
  kTimeout,
  /// The receive deadline expired at a frame boundary with nothing
  /// read: an idle connection, not a malformed one. Close quietly.
  kIdle,
};

/// Sends one frame (header + payload). False on any write failure.
bool write_frame(int fd, std::string_view payload, std::string* error);

/// Receives one frame into `payload`. On kVersionMismatch the peer's
/// announced version is stored into `peer_version` (when non-null).
FrameStatus read_frame(int fd, std::string* payload, std::string* error,
                       std::uint32_t* peer_version = nullptr);

/// Serializes `request` and sends it as one frame.
bool write_request(int fd, const CompileRequest& request, std::string* error);

/// Serializes `response` and sends it as one frame.
bool write_response(int fd, const CompileResponse& response,
                    std::string* error);

/// Receives one frame and decodes a CompileResponse from it. nullopt on
/// stream or decode failure (with `error` filled in).
std::optional<CompileResponse> read_response(int fd, std::string* error);

/// Connects to a Unix-domain socket; -1 on failure (with `error`).
int connect_unix(const std::string& socket_path, std::string* error);

}  // namespace tadfa::service
