#include "net/wire.h"

#include "util/bytes.h"

namespace rdfc {
namespace net {

namespace {

/// Fills in the length prefix reserved at `frame_start` once the payload is
/// fully appended.
void PatchFrameLength(std::size_t frame_start, std::string* out) {
  std::string prefix;
  util::ByteWriter(&prefix).U32(static_cast<std::uint32_t>(
      out->size() - frame_start - kFramePrefixBytes));
  out->replace(frame_start, kFramePrefixBytes, prefix);
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireStatus::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kQuarantined:
      return "QUARANTINED";
    case WireStatus::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireStatus::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

void EncodeRequest(const WireRequest& request, std::string* out) {
  const std::size_t frame_start = out->size();
  out->append(kFramePrefixBytes, '\0');
  util::ByteWriter w(out);
  w.U8(kWireVersion);
  w.U8(static_cast<std::uint8_t>(request.opcode));
  w.U64(request.id);
  w.U32(request.deadline_ms);
  w.U32(request.simulated_io_micros);
  w.Str(request.query);
  PatchFrameLength(frame_start, out);
}

void EncodeResponse(const WireResponse& response, std::string* out) {
  const std::size_t frame_start = out->size();
  out->append(kFramePrefixBytes, '\0');
  util::ByteWriter w(out);
  w.U8(kWireVersion);
  w.U8(static_cast<std::uint8_t>(response.status));
  std::uint8_t flags = 0;
  if (response.degraded) flags |= 1;
  if (response.quarantined) flags |= 2;
  w.U8(flags);
  w.U64(response.id);
  w.U64(response.snapshot_version);
  w.U32(response.candidates);
  w.U32(response.np_checks);
  w.F64(response.server_micros);
  w.U64Vector(response.containing_views);
  w.U64Vector(response.unverified_views);
  w.Str(response.payload);
  PatchFrameLength(frame_start, out);
}

util::Status DecodeRequest(std::string_view payload, WireRequest* out) {
  util::ByteReader r(payload);
  std::uint8_t version = 0;
  std::uint8_t opcode = 0;
  if (!r.U8(&version) || !r.U8(&opcode) || !r.U64(&out->id) ||
      !r.U32(&out->deadline_ms) || !r.U32(&out->simulated_io_micros) ||
      !r.Str(&out->query)) {
    return util::Status::ParseError("truncated request frame");
  }
  if (version != kWireVersion) {
    return util::Status::ParseError("unsupported wire version");
  }
  if (opcode < static_cast<std::uint8_t>(Opcode::kProbe) ||
      opcode > static_cast<std::uint8_t>(Opcode::kHealth)) {
    return util::Status::ParseError("unknown opcode");
  }
  out->opcode = static_cast<Opcode>(opcode);
  if (!r.exhausted()) {
    return util::Status::ParseError("trailing bytes after request frame");
  }
  return util::Status::OK();
}

util::Status DecodeResponse(std::string_view payload, WireResponse* out) {
  util::ByteReader r(payload);
  std::uint8_t version = 0;
  std::uint8_t status = 0;
  std::uint8_t flags = 0;
  if (!r.U8(&version) || !r.U8(&status) || !r.U8(&flags) ||
      !r.U64(&out->id) || !r.U64(&out->snapshot_version) ||
      !r.U32(&out->candidates) || !r.U32(&out->np_checks) ||
      !r.F64(&out->server_micros) || !r.U64Vector(&out->containing_views) ||
      !r.U64Vector(&out->unverified_views) || !r.Str(&out->payload)) {
    return util::Status::ParseError("truncated response frame");
  }
  if (version != kWireVersion) {
    return util::Status::ParseError("unsupported wire version");
  }
  if (status > static_cast<std::uint8_t>(WireStatus::kInternal)) {
    return util::Status::ParseError("unknown wire status");
  }
  out->status = static_cast<WireStatus>(status);
  out->degraded = (flags & 1) != 0;
  out->quarantined = (flags & 2) != 0;
  if (!r.exhausted()) {
    return util::Status::ParseError("trailing bytes after response frame");
  }
  return util::Status::OK();
}

std::uint32_t PeekFrameLength(std::string_view bytes) {
  std::uint32_t len = 0;
  util::ByteReader(bytes).U32(&len);
  return len;
}

}  // namespace net
}  // namespace rdfc
