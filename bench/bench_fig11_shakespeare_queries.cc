// Reproduces Figure 11 of the paper: Hybrid/XORator response-time ratios
// for queries QS1-QS6 and loading time on the Shakespeare data set, at
// scale factors DSx1/x2/x4/x8.
//
// Environment: XORATOR_PLAYS, XORATOR_MAX_SCALE (default 8), XORATOR_RUNS
// (default 3; 5, the paper's protocol, at full scale).
// `--json PATH` also writes the numbers as JSON (BENCH_fig11.json).

#include <cstdio>

#include "benchutil/benchutil.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "figure_common.h"

namespace xorator {
namespace {

int Run(const std::string& json_path) {
  bool full = benchutil::FullScale();
  datagen::ShakespeareOptions gen_opts;
  gen_opts.plays = bench::EnvInt("PLAYS", full ? 37 : 8);
  int max_scale = bench::EnvInt("MAX_SCALE", 8);
  int runs = bench::EnvInt("RUNS", full ? 5 : 3);
  std::vector<int> scales;
  for (int s = 1; s <= max_scale; s *= 2) scales.push_back(s);

  auto corpus = datagen::ShakespeareGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::printf(
      "== Figure 11: Shakespeare queries, Hybrid vs XORator (%d plays = %s, "
      "scales up to DSx%d, %d runs/query) ==\n"
      "Paper shape: XORator wins QS1-QS5 (often ~10x), loses QS6 (order "
      "access); loading is much faster under XORator.\n\n",
      gen_opts.plays, benchutil::FmtBytes(datagen::CorpusBytes(corpus)).c_str(),
      max_scale, runs);

  auto result = bench::RunFigure(datagen::kShakespeareDtd, docs,
                                 benchutil::ShakespeareQueries(), scales,
                                 runs);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigure(*result, benchutil::ShakespeareQueries(), scales);
  if (!json_path.empty()) {
    Status written = bench::WriteFigureJson(
        json_path, "fig11", std::to_string(gen_opts.plays) + " plays", runs,
        *result);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xorator

int main(int argc, char** argv) {
  return xorator::Run(xorator::bench::JsonPathArg(argc, argv));
}
