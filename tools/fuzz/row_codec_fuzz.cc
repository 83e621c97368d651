// libFuzzer harness for the typed row codec (src/ordb/row_codec.h;
// DESIGN.md section 14). The property under test: NO byte sequence may
// crash RowView::Parse or read outside the record — every input either
// parses, after which all accessors are total, or comes back as a clean
// error; and the two decode paths (RowView and DecodeTuple) always agree.
//
// Input layout: byte 0 is the column count (mod 13), the next n bytes pick
// column types (mod 6, covering kNull..kXadt), and the rest is the record.
//
// Two build modes share this file, exactly like parser_fuzz.cc:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `row_codec_fuzz` target, see CMakeLists.txt here);
//   * -DXO_FUZZ_STANDALONE: adds a main() that replays corpus files (or
//     directories) deterministically — registered as the
//     `row_codec_fuzz_corpus` ctest so the checked-in seeds run under every
//     sanitizer configuration without a fuzzing engine.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "ordb/row_codec.h"
#include "ordb/tuple.h"
#include "ordb/value.h"

namespace {

using xorator::ordb::DecodeTuple;
using xorator::ordb::EncodeTuple;
using xorator::ordb::RowView;
using xorator::ordb::TableSchema;
using xorator::ordb::Tuple;
using xorator::ordb::TypeId;
using xorator::ordb::Value;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "row_codec_fuzz: invariant violated: %s\n", what);
    std::abort();
  }
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  return a.type() == b.type() && a.Equals(b);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const size_t ncols = data[0] % 13;
  if (size < 1 + ncols) return 0;
  TableSchema schema;
  for (size_t i = 0; i < ncols; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    schema.columns.push_back({name, static_cast<TypeId>(data[1 + i] % 6)});
  }
  const std::string_view record(
      reinterpret_cast<const char*>(data) + 1 + ncols, size - 1 - ncols);

  auto view = RowView::Parse(schema, record);
  auto decoded = DecodeTuple(schema, record);
  Check(view.ok() == decoded.ok(),
        "RowView::Parse and DecodeTuple disagree on validity");
  if (!view.ok()) return 0;

  // All accessors are total after a successful Parse, and in-place column
  // decoding agrees with the materialized tuple.
  Tuple tuple;
  view->Materialize(&tuple);
  Check(tuple.size() == ncols, "Materialize produced the wrong arity");
  for (size_t i = 0; i < view->columns(); ++i) {
    Check(SameValue(view->column(i).ToValue(), tuple[i]),
          "column(i).ToValue() diverges from Materialize");
    Check(SameValue(tuple[i], (*decoded)[i]),
          "RowView materialization diverges from DecodeTuple");
  }

  // Re-encoding the materialized tuple must parse back to the same values.
  // (Byte equality is deliberately not required: GetVarint accepts
  // non-minimal length prefixes, and a non-null value in a kNull column
  // round-trips as null.)
  std::string reencoded;
  EncodeTuple(schema, tuple, &reencoded);
  auto again = RowView::Parse(schema, reencoded);
  Check(again.ok(), "re-encoded row fails to parse");
  Tuple tuple2;
  again->Materialize(&tuple2);
  for (size_t i = 0; i < ncols; ++i) {
    Check(SameValue(tuple[i], tuple2[i]), "encode/parse round trip unstable");
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
    std::fprintf(stderr, "row_codec_fuzz: cannot read %s\n", path.c_str());
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
    std::fprintf(stderr,
                 "usage: row_codec_fuzz_replay <corpus-dir-or-file>...\n");
    return 1;
  }
  std::fprintf(stderr, "row_codec_fuzz: replayed %zu corpus input(s)\n",
               replayed);
  return failures == 0 ? 0 : 1;
}

#endif  // XO_FUZZ_STANDALONE
