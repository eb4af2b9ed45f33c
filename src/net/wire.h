#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rdfc {
namespace net {

/// Framed-TCP wire protocol of the network front end (DESIGN.md "Network
/// front end").  Every message is one frame: a little-endian u32 payload
/// length followed by that many payload bytes.  Payloads are compact binary
/// (fixed-width little-endian integers, length-prefixed strings), encoded
/// and bounds-check decoded through the byte codec the journal and
/// checkpoint formats share (util/bytes.h), so the server never heap-parses
/// under load; the stats payload carries JSON as an opaque byte string.
///
/// The frame length prefix deliberately excludes itself: a 12-byte payload
/// travels as 16 bytes on the wire.  Frames above the server's configured
/// maximum are a protocol error and close the offending connection.

inline constexpr std::uint8_t kWireVersion = 1;
/// Bytes of the frame length prefix.
inline constexpr std::size_t kFramePrefixBytes = 4;

enum class Opcode : std::uint8_t {
  kProbe = 1,     // containment probe (query text + deadline)
  kStats = 2,     // metrics snapshot as JSON in the response payload
  kPing = 3,      // liveness no-op
  kShutdown = 4,  // ask the server to drain and exit (if permitted)
  /// Liveness/readiness split (DESIGN.md "Durability"): answered directly by
  /// the I/O thread like kPing — it never queues behind recovery or probe
  /// work, so a response proves the process is *live* — while the JSON
  /// payload (`ready`, `recovering`, journal replay counters) reports
  /// whether the service is *ready* to serve current answers.
  kHealth = 5,
};

/// Machine-readable response statuses.  Service outcomes map onto these
/// 1:1 — shedding, deadline misses, and quarantine rejections are distinct
/// codes a client can branch on, not strings to grep out of a CLI.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  /// The per-request deadline passed before the probe started (the degraded
  /// mid-probe-expiry case stays kOk with the degraded flag set — the answer
  /// is sound, just possibly incomplete).
  kDeadlineExceeded = 1,
  /// Shed at admission: the bounded queue was full.
  kResourceExhausted = 2,
  /// Unparseable query, unknown opcode, or a forbidden operation.
  kInvalidArgument = 3,
  /// Short-circuited by the quarantine circuit breaker.
  kQuarantined = 4,
  /// The server is draining and no longer accepts probes.
  kShuttingDown = 5,
  kInternal = 6,
};

const char* WireStatusName(WireStatus status);

struct WireRequest {
  Opcode opcode = Opcode::kProbe;
  /// Client-chosen correlation id, echoed verbatim in the response.
  /// Responses to pipelined probes come back in submission order per
  /// connection, but the id makes clients robust to their own bookkeeping.
  std::uint64_t id = 0;
  /// Relative deadline in milliseconds, anchored at server receipt (0 =
  /// none).  Translated into the ProbeRequest steady-clock deadline, so it
  /// bounds queue wait AND probe compute via the ProbeBudget.
  std::uint32_t deadline_ms = 0;
  /// Simulated downstream work (ProbeRequest::simulated_io_micros): load
  /// generators use it to hold workers busy deterministically.
  std::uint32_t simulated_io_micros = 0;
  /// SPARQL text for kProbe; ignored for other opcodes.
  std::string query;
};

struct WireResponse {
  WireStatus status = WireStatus::kOk;
  bool degraded = false;
  bool quarantined = false;
  std::uint64_t id = 0;
  std::uint64_t snapshot_version = 0;
  std::uint32_t candidates = 0;
  std::uint32_t np_checks = 0;
  /// Admission-to-response time measured by the server.
  double server_micros = 0.0;
  std::vector<std::uint64_t> containing_views;
  std::vector<std::uint64_t> unverified_views;
  /// Opcode-dependent extra bytes: stats JSON for kStats, human-readable
  /// detail for error statuses, empty otherwise.
  std::string payload;
};

/// Appends one complete frame (length prefix + encoded payload) to `out`.
void EncodeRequest(const WireRequest& request, std::string* out);
void EncodeResponse(const WireResponse& response, std::string* out);

/// Decodes a frame payload (WITHOUT the length prefix).  Every length field
/// is bounds-checked against the remaining payload bytes; failure means the
/// peer is broken and the connection should be closed.
[[nodiscard]] util::Status DecodeRequest(std::string_view payload,
                                         WireRequest* out);
[[nodiscard]] util::Status DecodeResponse(std::string_view payload,
                                          WireResponse* out);

/// Reads the u32 length prefix from the first kFramePrefixBytes of `bytes`
/// (which must hold at least that many).
std::uint32_t PeekFrameLength(std::string_view bytes);

}  // namespace net
}  // namespace rdfc
