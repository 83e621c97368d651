#include "server/protocol.h"

#include <cassert>
#include <string_view>

#include "common/status.h"
#include "common/varint.h"

namespace xorator::server {

namespace {

/// Appends a varint-length-prefixed string.
void AppendString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

/// Reads a varint-length-prefixed string, bounded by `max_bytes`.
Result<std::string> ReadString(xo::BoundedReader* reader, uint64_t max_bytes) {
  ASSIGN_OR_RETURN(std::string_view bytes, reader->ReadLengthPrefixedBytes());
  if (bytes.size() > max_bytes) {
    return Status::ParseError("string field exceeds its bound");
  }
  return std::string(bytes);
}

/// Reads a varint element count. The reader bounds it implicitly — every
/// element is at least one byte — so a hostile count can never drive a
/// larger allocation than the payload itself paid for.
Result<uint64_t> ReadCount(xo::BoundedReader* reader) {
  ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
  if (count > reader->remaining()) {
    return Status::ParseError("element count outruns the payload");
  }
  return count;
}

/// Decoding must consume the payload exactly: trailing bytes mean the
/// sender and receiver disagree about the shape, which is a protocol error
/// worth failing loudly on rather than silently ignoring.
Status ExpectEnd(const xo::BoundedReader& reader) {
  if (!reader.AtEnd()) {
    return Status::ParseError("trailing bytes after payload");
  }
  return Status::OK();
}

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kStatsResult);
}

/// StatusCode values a wire error may carry. An unknown byte (a newer
/// peer, or corruption that slipped the magic check) maps to kInternal
/// rather than being trusted.
StatusCode CodeFromWire(uint8_t code) {
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(code);
}

}  // namespace

void AppendFrame(std::string* out, FrameType type, uint8_t flags,
                 std::string_view payload) {
  assert(payload.size() <= kMaxPayloadBytes);
  xo::AppendU16(out, kFrameMagic);
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(flags));
  xo::AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

std::string EncodeQueryRequest(FrameType type, const QueryRequest& request) {
  std::string payload;
  xo::AppendU64(&payload, request.query_id);
  xo::AppendU64(&payload, request.deadline_millis);
  xo::AppendU64(&payload, request.max_memory_bytes);
  AppendString(&payload, request.sql);
  std::string frame;
  AppendFrame(&frame, type, request.skip_quarantined ? 1 : 0, payload);
  return frame;
}

std::string EncodeCancelRequest(const CancelRequest& request) {
  std::string payload;
  xo::AppendU64(&payload, request.query_id);
  std::string frame;
  AppendFrame(&frame, FrameType::kCancel, 0, payload);
  return frame;
}

std::string EncodeStatsRequest() {
  std::string frame;
  AppendFrame(&frame, FrameType::kStats, 0, std::string_view());
  return frame;
}

Result<std::string> EncodeResult(const ResultPayload& result) {
  std::string payload;
  PutVarint(&payload, result.columns.size());
  for (const std::string& column : result.columns) {
    AppendString(&payload, column);
  }
  PutVarint(&payload, result.rows.size());
  for (const std::vector<std::string>& row : result.rows) {
    PutVarint(&payload, row.size());
    for (const std::string& value : row) {
      AppendString(&payload, value);
    }
  }
  AppendString(&payload, result.report);
  if (payload.size() > kMaxPayloadBytes) {
    return Status::ResourceExhausted(
        "result of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte frame payload cap");
  }
  std::string frame;
  AppendFrame(&frame, FrameType::kResult, 0, payload);
  return frame;
}

std::string EncodeError(const ErrorPayload& error) {
  // The message can originate anywhere in the engine at any length; clamp
  // it so an ERROR frame always fits the payload cap (the slack covers the
  // code byte, the retry-after u32, and the length varint). An unframeable
  // error reply would be rejected at the peer's header decode, turning a
  // reported failure into a protocol failure.
  constexpr size_t kMaxErrorMessageBytes = kMaxPayloadBytes - 32;
  std::string_view message = error.message;
  if (message.size() > kMaxErrorMessageBytes) {
    message = message.substr(0, kMaxErrorMessageBytes);
  }
  std::string payload;
  payload.push_back(static_cast<char>(error.code));
  xo::AppendU32(&payload, error.retry_after_millis);
  AppendString(&payload, message);
  std::string frame;
  AppendFrame(&frame, FrameType::kError, 0, payload);
  return frame;
}

std::string EncodeStats(const StatsPayload& stats) {
  // Stats rows are engine-provided; like EncodeError, keep the frame under
  // the payload cap — by dropping tail rows — rather than emitting a reply
  // the peer must reject as oversize. The slack covers the row-count
  // varint.
  std::string rows_bytes;
  size_t included = 0;
  constexpr size_t kCountSlack = 16;
  for (const auto& [name, value] : stats.rows) {
    std::string row;
    AppendString(&row, name);
    AppendString(&row, value);
    if (rows_bytes.size() + row.size() + kCountSlack > kMaxPayloadBytes) break;
    rows_bytes += row;
    ++included;
  }
  std::string payload;
  PutVarint(&payload, included);
  payload += rows_bytes;
  std::string frame;
  AppendFrame(&frame, FrameType::kStatsResult, 0, payload);
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  xo::BoundedReader reader(bytes);
  ASSIGN_OR_RETURN(uint16_t magic, reader.ReadU16());
  if (magic != kFrameMagic) {
    return Status::ParseError("bad frame magic");
  }
  ASSIGN_OR_RETURN(uint8_t type, reader.ReadU8());
  if (!ValidFrameType(type)) {
    return Status::ParseError("unknown frame type " + std::to_string(type));
  }
  ASSIGN_OR_RETURN(uint8_t flags, reader.ReadU8());
  ASSIGN_OR_RETURN(uint32_t payload_bytes, reader.ReadU32());
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::ParseError("frame payload of " +
                              std::to_string(payload_bytes) +
                              " bytes exceeds the " +
                              std::to_string(kMaxPayloadBytes) + "-byte cap");
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.flags = flags;
  header.payload_bytes = payload_bytes;
  return header;
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload,
                                        uint8_t flags) {
  xo::BoundedReader reader(payload);
  QueryRequest request;
  ASSIGN_OR_RETURN(request.query_id, reader.ReadU64());
  ASSIGN_OR_RETURN(request.deadline_millis, reader.ReadU64());
  ASSIGN_OR_RETURN(request.max_memory_bytes, reader.ReadU64());
  ASSIGN_OR_RETURN(request.sql, ReadString(&reader, kMaxSqlBytes));
  request.skip_quarantined = (flags & 1) != 0;
  RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

Result<CancelRequest> DecodeCancelRequest(std::string_view payload) {
  xo::BoundedReader reader(payload);
  CancelRequest request;
  ASSIGN_OR_RETURN(request.query_id, reader.ReadU64());
  RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

Result<ResultPayload> DecodeResult(std::string_view payload) {
  xo::BoundedReader reader(payload);
  ResultPayload result;
  ASSIGN_OR_RETURN(uint64_t columns, ReadCount(&reader));
  result.columns.reserve(static_cast<size_t>(columns));
  for (uint64_t c = 0; c < columns; ++c) {
    ASSIGN_OR_RETURN(std::string column, ReadString(&reader, kMaxPayloadBytes));
    result.columns.push_back(std::move(column));
  }
  ASSIGN_OR_RETURN(uint64_t rows, ReadCount(&reader));
  result.rows.reserve(static_cast<size_t>(rows));
  for (uint64_t r = 0; r < rows; ++r) {
    ASSIGN_OR_RETURN(uint64_t values, ReadCount(&reader));
    std::vector<std::string> row;
    row.reserve(static_cast<size_t>(values));
    for (uint64_t v = 0; v < values; ++v) {
      ASSIGN_OR_RETURN(std::string value, ReadString(&reader, kMaxPayloadBytes));
      row.push_back(std::move(value));
    }
    result.rows.push_back(std::move(row));
  }
  ASSIGN_OR_RETURN(result.report, ReadString(&reader, kMaxPayloadBytes));
  RETURN_IF_ERROR(ExpectEnd(reader));
  return result;
}

Result<ErrorPayload> DecodeError(std::string_view payload) {
  xo::BoundedReader reader(payload);
  ErrorPayload error;
  ASSIGN_OR_RETURN(error.code, reader.ReadU8());
  ASSIGN_OR_RETURN(error.retry_after_millis, reader.ReadU32());
  ASSIGN_OR_RETURN(error.message, ReadString(&reader, kMaxPayloadBytes));
  RETURN_IF_ERROR(ExpectEnd(reader));
  return error;
}

Result<StatsPayload> DecodeStats(std::string_view payload) {
  xo::BoundedReader reader(payload);
  StatsPayload stats;
  ASSIGN_OR_RETURN(uint64_t rows, ReadCount(&reader));
  stats.rows.reserve(static_cast<size_t>(rows));
  for (uint64_t r = 0; r < rows; ++r) {
    ASSIGN_OR_RETURN(std::string name, ReadString(&reader, kMaxPayloadBytes));
    ASSIGN_OR_RETURN(std::string value, ReadString(&reader, kMaxPayloadBytes));
    stats.rows.emplace_back(std::move(name), std::move(value));
  }
  RETURN_IF_ERROR(ExpectEnd(reader));
  return stats;
}

Status StatusFromError(const ErrorPayload& error) {
  Status status(CodeFromWire(error.code), error.message);
  if (error.retry_after_millis > 0) {
    return std::move(status).WithRetryAfter(error.retry_after_millis);
  }
  return status;
}

ErrorPayload ErrorFromStatus(const Status& status) {
  ErrorPayload error;
  error.code = static_cast<uint8_t>(status.code());
  error.retry_after_millis = status.retry_after_millis();
  error.message = status.message();
  return error;
}

}  // namespace xorator::server

