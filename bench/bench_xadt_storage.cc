// Ablation for Section 3.4.1: raw vs compressed XADT storage. Measures
// encode/decode/method costs (google-benchmark) and prints a size sweep
// over fragments with varying tag densities, which drives the 20% rule.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "benchutil/benchutil.h"
#include "xadt/xadt.h"
#include "xml/parser.h"

namespace xorator {
namespace {

std::unique_ptr<xml::Node> MakeSpeechFragment(int lines) {
  auto frag = xml::Node::Element("#fragment");
  for (int i = 0; i < lines; ++i) {
    auto line = xml::Node::Element("LINE");
    line->AddChild(xml::Node::Text(
        "but soft what light through yonder window breaks " +
        std::to_string(i)));
    if (i % 7 == 0) {
      line->AddElementWithText("STAGEDIR", "Rising");
    }
    frag->AddChild(std::move(line));
  }
  return frag;
}

std::vector<const xml::Node*> Children(const xml::Node& frag) {
  std::vector<const xml::Node*> out;
  for (const auto& c : frag.children()) out.push_back(c.get());
  return out;
}

void BM_EncodeRaw(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  auto roots = Children(*frag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xadt::EncodeRaw(roots));
  }
}
BENCHMARK(BM_EncodeRaw)->Arg(4)->Arg(64);

void BM_EncodeCompressed(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  auto roots = Children(*frag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xadt::EncodeCompressed(roots));
  }
}
BENCHMARK(BM_EncodeCompressed)->Arg(4)->Arg(64);

void BM_DecodeRaw(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  std::string bytes = xadt::EncodeRaw(Children(*frag));
  for (auto _ : state) {
    auto decoded = xadt::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeRaw)->Arg(4)->Arg(64);

void BM_DecodeCompressed(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  std::string bytes = xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto decoded = xadt::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeCompressed)->Arg(4)->Arg(64);

void BM_GetElm(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::GetElm(bytes, "LINE", "STAGEDIR", "Rising");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GetElm)->Arg(0)->Arg(1);

void BM_FindKeyInElm(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::FindKeyInElm(bytes, "LINE", "window");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FindKeyInElm)->Arg(0)->Arg(1);

void BM_Unnest(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::Unnest(bytes, "LINE");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Unnest)->Arg(0)->Arg(1);

void PrintSizeSweep() {
  std::printf(
      "\n== XADT storage-size sweep (drives the Section 4.1 20%% rule) "
      "==\n");
  benchutil::TablePrinter table({"Fragment", "Raw bytes", "Compressed bytes",
                                 "Saving", "Chooser"});
  struct Case {
    const char* label;
    const char* xml;
    int repeat;
  };
  const Case kCases[] = {
      {"1 short element", "<a>x</a>", 1},
      {"8 repeated tags", "<LINE>word word</LINE>", 8},
      {"64 repeated tags", "<LINE>word word</LINE>", 64},
      {"tag-heavy tree",
       "<s><t><u>x</u><u>y</u></t><t><u>z</u></t></s>", 16},
      {"text-heavy",
       "<p>a very long run of prose text with hardly any markup at all "
       "inside of it whatsoever</p>",
       4},
  };
  for (const Case& c : kCases) {
    std::string xml_text;
    for (int i = 0; i < c.repeat; ++i) xml_text += c.xml;
    auto frag = xml::ParseFragment(xml_text);
    if (!frag.ok()) continue;
    std::vector<const xml::Node*> roots;
    for (const auto& child : (*frag)->children()) roots.push_back(child.get());
    const size_t raw = xadt::EncodeRaw(roots).size();
    const size_t compressed = xadt::EncodeCompressed(roots).size();
    double saving = 1.0 - static_cast<double>(compressed) /
                              static_cast<double>(raw);
    table.AddRow({c.label, std::to_string(raw), std::to_string(compressed),
                  benchutil::Fmt(saving * 100, 1) + "%",
                  xadt::ChooseCompression(raw, compressed) ? "compressed"
                                                           : "raw"});
  }
  table.Print();
}

}  // namespace
}  // namespace xorator

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  xorator::PrintSizeSweep();
  return 0;
}
