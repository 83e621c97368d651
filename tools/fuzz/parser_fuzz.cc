// libFuzzer harness for the XML lexer and the XADT decoder (hostile-input
// hardening, DESIGN.md section 12). Properties under test:
//   * NO byte sequence may crash, overflow the stack, or allocate without
//     bound — every input either parses or comes back as a clean
//     kParseError;
//   * one lexer: a raw XADT value ("R" + input) decodes exactly when
//     xml::ParseFragment accepts the input (whitespace kept), to the same
//     serialization;
//   * one decoder: whenever the input parses, its raw and compressed
//     encodings decode to the same serialization, and findKeyInElm,
//     getElm, getElmIndex and unnest answer alike on the raw text and the
//     raw and compressed encodings;
//   * the compressed decoder fails closed: "C" + input, fed to every XADT
//     method, returns OK or a clean kParseError/kCorruption;
//   * 'D' is no representation: "D" + input, fed to every XADT method and
//     to Decode/ToXmlString, returns kParseError.
// A differential mismatch aborts, so it fails the fuzzer and the replay.
//
// Two build modes share this file:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `parser_fuzz` target, see CMakeLists.txt here);
//   * -DXO_FUZZ_STANDALONE: adds a main() that replays corpus files (or
//     whole directories of them) deterministically — registered as the
//     `parser_fuzz_corpus` ctest so the checked-in seeds run under every
//     sanitizer configuration without a fuzzing engine.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

// Tight limits keep individual fuzz iterations fast and make the limit
// checks themselves part of the fuzzed surface.
xorator::xml::ParseOptions FuzzOptions() {
  xorator::xml::ParseOptions options;
  options.limits.max_depth = 64;
  options.limits.max_token_bytes = 1u << 16;
  options.limits.max_input_bytes = 1u << 20;
  return options;
}

void Require(bool holds, const char* property) {
  if (!holds) {
    std::fprintf(stderr, "parser_fuzz: violated: %s\n", property);
    std::abort();
  }
}

std::string SerializeChildren(const xorator::xml::Node& root) {
  std::string out;
  for (const auto& child : root.children()) {
    xorator::xml::SerializeTo(*child, &out);
  }
  return out;
}

// An XADT result as comparable text: its decoded tree serialized, or its
// error code.
std::string Show(const xorator::Result<std::string>& value) {
  if (!value.ok()) {
    return "error " +
           std::string(xorator::StatusCodeToString(value.status().code()));
  }
  auto root = xorator::xadt::Decode(*value);
  return root.ok() ? SerializeChildren(**root) : "undecodable result";
}

std::string Show(const xorator::Result<int64_t>& found) {
  if (!found.ok()) {
    return "error " +
           std::string(xorator::StatusCodeToString(found.status().code()));
  }
  return std::to_string(*found);
}

std::string Show(
    const xorator::Result<std::vector<std::string>>& fragments) {
  if (!fragments.ok()) {
    return "error " +
           std::string(xorator::StatusCodeToString(fragments.status().code()));
  }
  std::string out;
  for (const std::string& f : *fragments) {
    out.append("[").append(Show(f)).append("]");
  }
  return out;
}

// The answers of the path/keyword/order methods over `value`, asked about
// element `elm` and keyword `key`.
std::string MethodAnswers(std::string_view value, const std::string& elm,
                          const std::string& key) {
  namespace xadt = xorator::xadt;
  return Show(xadt::FindKeyInElm(value, elm, key)) + "|" +
         Show(xadt::FindKeyInElm(value, "", key)) + "|" +
         Show(xadt::FindKeyInElm(value, elm, "")) + "|" +
         Show(xadt::GetElm(value, elm, elm, key)) + "|" +
         Show(xadt::GetElm(value, elm, elm, key, 1)) + "|" +
         Show(xadt::GetElm(value, elm, "", "")) + "|" +
         Show(xadt::GetElmIndex(value, "", elm, 1, 2)) + "|" +
         Show(xadt::GetElmIndex(value, elm, elm, 1, 1)) + "|" +
         Show(xadt::Unnest(value, elm)) + "|" + Show(xadt::Unnest(value, ""));
}

// Whenever the input parses, every encoding of it answers alike. The
// element asked about is the first root's name, the key two bytes of the
// text (or a byte that never occurs in a name).
void CheckMethodsAgree(const std::string& input,
                       const xorator::xml::Node& fragment) {
  std::vector<const xorator::xml::Node*> roots;
  std::string elm = "a";
  for (const auto& child : fragment.children()) {
    roots.push_back(child.get());
    if (roots.size() == 1 && child->is_element()) elm = child->name();
  }
  const std::string text = fragment.TextContent();
  const std::string key = text.size() >= 2
                              ? text.substr(text.size() / 2 - 1, 2)
                              : std::string("#");
  const std::string expected = MethodAnswers("R" + input, elm, key);
  namespace xadt = xorator::xadt;
  Require(MethodAnswers(xadt::EncodeRaw(roots), elm, key) == expected &&
              MethodAnswers(xadt::EncodeCompressed(roots), elm, key) ==
                  expected,
          "XADT methods answer alike on every encoding");
}

bool CleanFailure(const xorator::Status& status) {
  return status.ok() ||
         status.code() == xorator::StatusCode::kParseError ||
         status.code() == xorator::StatusCode::kCorruption;
}

// The input as the body of a compressed value: every method returns OK or
// a clean kParseError/kCorruption. The element asked about is the value's
// first non-empty dictionary name, if it has one.
void CheckCompressedFailsClosed(const std::string& input) {
  namespace xadt = xorator::xadt;
  const std::string value = "C" + input;
  std::string elm = "a";
  auto scanner = xadt::FragmentScanner::Create(value);
  if (scanner.ok()) {
    for (std::string_view name : scanner->dictionary()) {
      if (name.empty()) continue;
      elm = std::string(name);
      break;
    }
  }
  Require(CleanFailure(xadt::FindKeyInElm(value, elm, "ab").status()) &&
              CleanFailure(xadt::FindKeyInElm(value, "", "ab").status()) &&
              CleanFailure(xadt::FindKeyInElm(value, elm, "").status()) &&
              CleanFailure(xadt::GetElm(value, elm, elm, "ab").status()) &&
              CleanFailure(xadt::GetElm(value, elm, "", "", 2).status()) &&
              CleanFailure(
                  xadt::GetElmIndex(value, "", elm, 1, 2).status()) &&
              CleanFailure(
                  xadt::GetElmIndex(value, elm, elm, 2, 3).status()) &&
              CleanFailure(xadt::Unnest(value, elm).status()) &&
              CleanFailure(xadt::Unnest(value, "").status()) &&
              CleanFailure(xadt::TextContent(value).status()) &&
              CleanFailure(xadt::Decode(value).status()) &&
              CleanFailure(xadt::ToXmlString(value).status()),
          "every method fails closed on a compressed value");
}

// The input behind an unknown marker: every method, Decode and ToXmlString
// return kParseError without looking further.
void CheckUnknownMarkerRejected(const std::string& input) {
  namespace xadt = xorator::xadt;
  const std::string value = "D" + input;
  auto parse_error = [](const xorator::Status& status) {
    return status.code() == xorator::StatusCode::kParseError;
  };
  Require(parse_error(xadt::FindKeyInElm(value, "a", "ab").status()) &&
              parse_error(xadt::FindKeyInElm(value, "", "ab").status()) &&
              parse_error(xadt::GetElm(value, "a", "a", "ab").status()) &&
              parse_error(xadt::GetElmIndex(value, "", "a", 1, 2).status()) &&
              parse_error(xadt::Unnest(value, "").status()) &&
              parse_error(xadt::Decode(value).status()) &&
              parse_error(xadt::ToXmlString(value).status()),
          "a value with an unknown marker is a parse error");
}

// The differential checks parse under the limits raw XADT values are
// lexed with: the default depth limit and no size limits.
void CheckLexerAndDecoderAgree(const std::string& input) {
  xorator::xml::ParseOptions keep;
  keep.strip_whitespace_text = false;
  keep.limits.max_token_bytes = 0;
  keep.limits.max_input_bytes = 0;
  auto fragment = xorator::xml::ParseFragment(input, keep);
  auto raw = xorator::xadt::Decode("R" + input);
  Require(fragment.ok() == raw.ok(),
          "ParseFragment and raw Decode accept the same inputs");
  if (!fragment.ok()) return;
  const std::string expected = SerializeChildren(**fragment);
  Require(SerializeChildren(**raw) == expected,
          "raw Decode serializes like ParseFragment");
  std::vector<const xorator::xml::Node*> roots;
  for (const auto& child : (*fragment)->children()) roots.push_back(child.get());
  auto from_raw = xorator::xadt::Decode(xorator::xadt::EncodeRaw(roots));
  auto from_compressed =
      xorator::xadt::Decode(xorator::xadt::EncodeCompressed(roots));
  Require(from_raw.ok() && from_compressed.ok(), "encoded fragments decode");
  Require(SerializeChildren(**from_raw) == expected &&
              SerializeChildren(**from_compressed) == expected,
          "raw and compressed encodings decode alike");
  CheckMethodsAgree(input, **fragment);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  const xorator::xml::ParseOptions options = FuzzOptions();
  auto doc = xorator::xml::ParseDocument(input, options);
  if (doc.ok()) {
    // A successful parse must serialize, and the serialization must parse
    // again — a cheap structural invariant on whatever DOM was built.
    std::string out = xorator::xml::Serialize(*doc->root);
    auto again = xorator::xml::ParseDocument(out, options);
    XO_DISCARD_STATUS(std::move(again),
                      "round-trip output may legitimately exceed the limits");
  }
  XO_DISCARD_STATUS(xorator::xml::ParseFragment(input, options),
                    "fuzz input; errors expected");
  CheckLexerAndDecoderAgree(input);
  CheckCompressedFailsClosed(input);
  CheckUnknownMarkerRejected(input);
  return 0;
}

#ifdef XO_FUZZ_STANDALONE

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

int ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "parser_fuzz: cannot read %s\n", path.c_str());
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
    std::fprintf(stderr, "usage: parser_fuzz_replay <corpus-dir-or-file>...\n");
    return 1;
  }
  std::fprintf(stderr, "parser_fuzz: replayed %zu corpus input(s)\n", replayed);
  return failures == 0 ? 0 : 1;
}

#endif  // XO_FUZZ_STANDALONE
