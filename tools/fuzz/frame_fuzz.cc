// libFuzzer harness for the wire protocol (DESIGN.md section 17). The
// property under test: frame decoding is TOTAL — no byte sequence may
// crash the header or payload decoders, drive an allocation larger than
// the payload itself paid for, or come back with anything but a clean
// kParseError/kCorruption — and every successful decode must survive an
// encode/decode round trip unchanged (the codec is its own inverse).
//
// Input layout: byte 0 picks the decoder (mod 6):
//   0  full frame: header decode over bytes [1, 9), then the matching
//      payload decoder over the rest (malformed lengths, truncated frames
//      and oversize payloads all land here);
//   1  DecodeQueryRequest over the rest, flags = byte 1;
//   2  DecodeCancelRequest;  3  DecodeResult;  4  DecodeError;
//   5  DecodeStats.
//
// Two build modes share this file, exactly like page_fuzz.cc:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `frame_fuzz` target, see CMakeLists.txt here);
//   * -DXO_FUZZ_STANDALONE: adds a main() that replays corpus files (or
//     directories) deterministically — registered as the
//     `frame_fuzz_corpus` ctest so the checked-in seeds run under every
//     sanitizer configuration without a fuzzing engine.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "server/protocol.h"

namespace {

using xorator::Result;
using xorator::Status;
using xorator::StatusCode;
using namespace xorator::server;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "frame_fuzz: invariant violated: %s\n", what);
    std::abort();
  }
}

/// Every decoder failure must be a clean parse/corruption status — any
/// other code means some internal error leaked into the hostile-input
/// path.
void CheckFailureCode(const Status& status, const char* decoder) {
  const StatusCode code = status.code();
  if (code != StatusCode::kParseError && code != StatusCode::kCorruption) {
    std::fprintf(stderr, "frame_fuzz: %s failed with unexpected code %d\n",
                 decoder, static_cast<int>(code));
    std::abort();
  }
}

void FuzzQueryRequest(std::string_view payload, uint8_t flags) {
  Result<QueryRequest> request = DecodeQueryRequest(payload, flags);
  if (!request.ok()) {
    CheckFailureCode(request.status(), "DecodeQueryRequest");
    return;
  }
  Check(request->sql.size() <= kMaxSqlBytes,
        "decoded SQL exceeds kMaxSqlBytes");
  // Round trip: re-encode, split the frame, re-decode, compare.
  const std::string frame =
      EncodeQueryRequest(FrameType::kQuery, request.value());
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes));
  Check(header.ok(), "re-encoded query frame header does not decode");
  Result<QueryRequest> again = DecodeQueryRequest(
      std::string_view(frame).substr(kFrameHeaderBytes), header->flags);
  Check(again.ok(), "re-encoded query payload does not decode");
  Check(again->query_id == request->query_id &&
            again->deadline_millis == request->deadline_millis &&
            again->max_memory_bytes == request->max_memory_bytes &&
            again->skip_quarantined == request->skip_quarantined &&
            again->sql == request->sql,
        "query request round trip changed the request");
}

void FuzzCancelRequest(std::string_view payload) {
  Result<CancelRequest> request = DecodeCancelRequest(payload);
  if (!request.ok()) {
    CheckFailureCode(request.status(), "DecodeCancelRequest");
  }
}

void FuzzResult(std::string_view payload) {
  Result<ResultPayload> result = DecodeResult(payload);
  if (!result.ok()) {
    CheckFailureCode(result.status(), "DecodeResult");
    return;
  }
  // Row/column counts were bounded by the payload bytes themselves.
  Check(result->columns.size() <= payload.size(),
        "decoded column count outruns the payload");
  Check(result->rows.size() <= payload.size(),
        "decoded row count outruns the payload");
  Result<std::string> frame = EncodeResult(result.value());
  if (!frame.ok()) return;  // over the payload cap; nothing to round-trip
  Result<ResultPayload> again =
      DecodeResult(std::string_view(*frame).substr(kFrameHeaderBytes));
  Check(again.ok(), "re-encoded result payload does not decode");
  Check(again->columns == result->columns && again->rows == result->rows &&
            again->report == result->report,
        "result round trip changed the payload");
}

void FuzzError(std::string_view payload) {
  Result<ErrorPayload> error = DecodeError(payload);
  if (!error.ok()) {
    CheckFailureCode(error.status(), "DecodeError");
    return;
  }
  // The payload -> Status -> payload path must preserve what the client's
  // backoff layer keys on: retryability and the hint.
  const Status status = StatusFromError(error.value());
  Check(status.retry_after_millis() == error->retry_after_millis,
        "retry-after hint lost in StatusFromError");
  Check(!status.ok(), "error payload decoded to an OK status");
}

void FuzzStats(std::string_view payload) {
  Result<StatsPayload> stats = DecodeStats(payload);
  if (!stats.ok()) {
    CheckFailureCode(stats.status(), "DecodeStats");
    return;
  }
  const std::string frame = EncodeStats(stats.value());
  Result<StatsPayload> again =
      DecodeStats(std::string_view(frame).substr(kFrameHeaderBytes));
  Check(again.ok(), "re-encoded stats payload does not decode");
  Check(again->rows == stats->rows, "stats round trip changed the rows");
}

void FuzzFullFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    Result<FrameHeader> header = DecodeFrameHeader(bytes);
    if (!header.ok()) CheckFailureCode(header.status(), "DecodeFrameHeader");
    return;
  }
  Result<FrameHeader> header =
      DecodeFrameHeader(bytes.substr(0, kFrameHeaderBytes));
  if (!header.ok()) {
    CheckFailureCode(header.status(), "DecodeFrameHeader");
    return;
  }
  Check(header->payload_bytes <= kMaxPayloadBytes,
        "header decode accepted an oversize payload length");
  // Serve whatever bytes follow as the payload, exactly as the server
  // does after ReadFull — including the truncated case where fewer bytes
  // than payload_bytes exist (the decoders must fail closed, not read
  // past the buffer).
  std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (payload.size() > header->payload_bytes) {
    payload = payload.substr(0, header->payload_bytes);
  }
  switch (header->type) {
    case FrameType::kQuery:
    case FrameType::kExecute:
      FuzzQueryRequest(payload, header->flags);
      break;
    case FrameType::kCancel:
      FuzzCancelRequest(payload);
      break;
    case FrameType::kStats:
      break;  // no payload to decode
    case FrameType::kResult:
      FuzzResult(payload);
      break;
    case FrameType::kError:
      FuzzError(payload);
      break;
    case FrameType::kStatsResult:
      FuzzStats(payload);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const uint8_t mode = data[0] % 6;
  const std::string_view rest(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  switch (mode) {
    case 0:
      FuzzFullFrame(rest);
      break;
    case 1: {
      const uint8_t flags = rest.empty() ? 0 : static_cast<uint8_t>(rest[0]);
      FuzzQueryRequest(rest.empty() ? rest : rest.substr(1), flags);
      break;
    }
    case 2:
      FuzzCancelRequest(rest);
      break;
    case 3:
      FuzzResult(rest);
      break;
    case 4:
      FuzzError(rest);
      break;
    default:
      FuzzStats(rest);
      break;
  }
  return 0;
}

#ifdef XO_FUZZ_STANDALONE

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

int ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "frame_fuzz: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t replayed = 0;
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      // Sort for a deterministic replay order across platforms.
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& f : files) {
        failures += ReplayFile(f);
        ++replayed;
      }
    } else {
      failures += ReplayFile(arg);
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "usage: frame_fuzz_replay <corpus-dir-or-file>...\n");
    return 1;
  }
  std::fprintf(stderr, "frame_fuzz: replayed %zu corpus input(s)\n", replayed);
  return failures == 0 ? 0 : 1;
}

#endif  // XO_FUZZ_STANDALONE
