#ifndef XORATOR_SERVER_PROTOCOL_H_
#define XORATOR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/span.h"

namespace xorator::server {

/// The xorator wire protocol (DESIGN.md section 17): length-prefixed binary
/// frames over a byte stream. Every frame is
///
///   magic    u16   0x584F ("XO", little-endian on the wire)
///   type     u8    FrameType below
///   flags    u8    per-type bits (REQUEST frames: bit 0 = skip_quarantined)
///   length   u32   payload byte count, <= kMaxPayloadBytes
///   payload  length bytes
///
/// followed by the type-specific payload. Fixed-width integers are
/// little-endian; strings and counts inside payloads are LEB128 varint
/// length-prefixed (the engine's tuple-codec wire shape, decoded by the
/// same checked BoundedReader).
/// Decoding is total: any byte sequence either yields a frame or a clean
/// kParseError/kCorruption — never a crash, an unbounded allocation, or an
/// out-of-bounds read (the frame_fuzz harness holds the protocol to this).
///
/// Conversation shape: a client sends one request frame and reads exactly
/// one response frame (kResult, kStatsResult, or kError) before sending the
/// next — no pipelining. CANCEL targets a statement in flight on a
/// *different* connection, identified by the client-chosen query id.
enum class FrameType : uint8_t {
  /// Request: run SQL, return columns+rows (QueryRequest payload).
  kQuery = 1,
  /// Request: run SQL for effect; kResult response carries no rows.
  kExecute = 2,
  /// Request: cancel the in-flight statement whose QueryRequest carried
  /// this client-chosen query_id (CancelRequest payload).
  kCancel = 3,
  /// Request: server + engine counters as (name, value) rows (no payload).
  kStats = 4,
  /// Response: a successful query (ResultPayload).
  kResult = 5,
  /// Response: a failure (ErrorPayload: status code, retry-after, message).
  kError = 6,
  /// Response: STATS counters (StatsPayload).
  kStatsResult = 7,
};

/// Upper bound on a frame payload. Oversize lengths are rejected at header
/// decode, before any allocation — a hostile length can never balloon
/// server memory.
inline constexpr uint32_t kMaxPayloadBytes = 4u * 1024 * 1024;

/// Upper bound on the SQL text inside a request (well under the payload cap
/// so the rest of the request always fits).
inline constexpr uint32_t kMaxSqlBytes = 1u * 1024 * 1024;

/// Encoded size of the fixed frame header.
inline constexpr size_t kFrameHeaderBytes = 8;

/// The frame magic ("XO").
inline constexpr uint16_t kFrameMagic = 0x584F;

/// Decoded frame header.
struct FrameHeader {
  FrameType type = FrameType::kQuery;
  uint8_t flags = 0;
  uint32_t payload_bytes = 0;
};

/// QUERY / EXECUTE request: the statement plus its resource envelope,
/// mapped by the server onto ordb::QueryOptions (deadline measured from
/// admission, so queue wait counts against it — DESIGN.md section 17).
struct QueryRequest {
  /// Client-chosen cancellation identity (0 = not remotely cancellable by
  /// id; the server still cancels on disconnect).
  uint64_t query_id = 0;
  /// Wall-clock budget in ms from admission; 0 = none.
  uint64_t deadline_millis = 0;
  /// Tracked-memory budget in bytes; 0 = none.
  uint64_t max_memory_bytes = 0;
  /// Degraded-scan opt-in (QueryOptions::skip_quarantined).
  bool skip_quarantined = false;
  /// The SQL text.
  std::string sql;
};

/// CANCEL request payload.
struct CancelRequest {
  /// The query_id the target statement's QueryRequest carried.
  uint64_t query_id = 0;
};

/// kResult payload: column names plus rows of string-rendered values, and
/// the statement report text (ordb::StatementReport::ToString(): the
/// "guard:"/"resilience:" lines, empty for a clean unguarded statement).
struct ResultPayload {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::string report;
};

/// kError payload: the Status, round-tripped losslessly enough for the
/// client's backoff layer — code, retry-after hint, and full message (the
/// read-only health latch's state+detail+hint text included).
struct ErrorPayload {
  uint8_t code = 0;
  uint32_t retry_after_millis = 0;
  std::string message;
};

/// kStatsResult payload: ordered (name, value) counter rows.
struct StatsPayload {
  std::vector<std::pair<std::string, std::string>> rows;
};

/// Appends a complete frame (header + payload) to `*out`.
void AppendFrame(std::string* out, FrameType type, uint8_t flags,
                 std::string_view payload);

/// Encodes a QUERY or EXECUTE request as a complete frame.
[[nodiscard]] std::string EncodeQueryRequest(FrameType type,
                                             const QueryRequest& request);

/// Encodes a CANCEL request as a complete frame.
[[nodiscard]] std::string EncodeCancelRequest(const CancelRequest& request);

/// Encodes a STATS request as a complete frame.
[[nodiscard]] std::string EncodeStatsRequest();

/// Encodes a kResult response as a complete frame. kResourceExhausted when
/// the rendered result exceeds kMaxPayloadBytes (the server turns that
/// into a clean kError response rather than an unframeable reply).
[[nodiscard]] Result<std::string> EncodeResult(const ResultPayload& result);

/// Encodes a kError response as a complete frame. `code` must fit a u8
/// (StatusCode values do). The message is truncated if it would push the
/// payload past kMaxPayloadBytes — an error response is always frameable.
[[nodiscard]] std::string EncodeError(const ErrorPayload& error);

/// Encodes a kStatsResult response as a complete frame. Rows past the
/// kMaxPayloadBytes payload cap are dropped so the response is always
/// frameable.
[[nodiscard]] std::string EncodeStats(const StatsPayload& stats);

/// Decodes the fixed header from the first kFrameHeaderBytes of `bytes`.
/// kParseError on bad magic, unknown type, or an oversize/overlong length;
/// kCorruption when fewer than kFrameHeaderBytes are given.
[[nodiscard]] Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Decodes a QUERY/EXECUTE payload. `flags` is the frame header's flags
/// byte. Fails closed (kCorruption/kParseError) on truncation, trailing
/// bytes, or an oversize SQL length.
[[nodiscard]] Result<QueryRequest> DecodeQueryRequest(std::string_view payload,
                                                      uint8_t flags);

/// Decodes a CANCEL payload.
[[nodiscard]] Result<CancelRequest> DecodeCancelRequest(
    std::string_view payload);

/// Decodes a kResult payload.
[[nodiscard]] Result<ResultPayload> DecodeResult(std::string_view payload);

/// Decodes a kError payload.
[[nodiscard]] Result<ErrorPayload> DecodeError(std::string_view payload);

/// Decodes a kStatsResult payload.
[[nodiscard]] Result<StatsPayload> DecodeStats(std::string_view payload);

/// Reconstructs the Status an ErrorPayload carried: code, message, and the
/// retry-after hint, so Status::IsRetryable() answers identically on both
/// sides of the wire.
[[nodiscard]] Status StatusFromError(const ErrorPayload& error);

/// Builds the ErrorPayload for `status` (which must be non-OK; inspecting
/// it here counts as checking it).
[[nodiscard]] ErrorPayload ErrorFromStatus(const Status& status);

}  // namespace xorator::server

#endif  // XORATOR_SERVER_PROTOCOL_H_
