// libFuzzer harness for the XML lexer and the XADT decoder (hostile-input
// hardening, DESIGN.md section 12). Properties under test:
//   * NO byte sequence may crash, overflow the stack, or allocate without
//     bound — every input either parses or comes back as a clean
//     kParseError;
//   * one lexer: a raw XADT value ("R" + input) decodes exactly when
//     xml::ParseFragment accepts the input (whitespace kept), to the same
//     serialization;
//   * one decoder: whenever the input parses, its raw and compressed
//     encodings decode to the same serialization.
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
