// Reproduces Figure 13 of the paper: Hybrid/XORator response-time ratios
// for queries QG1-QG6 and loading time on the SIGMOD-Proceedings data set,
// at scale factors DSx1/x2/x4/x8.
//
// Paper shape: at small scales XORator loses (every query pays 4-8 UDF
// calls per tuple against the single XADT column), at larger scales it wins
// as the Hybrid joins outgrow the sort heap and fall back to sort-merge.
//
// Environment: XORATOR_SIGMOD_DOCS, XORATOR_MAX_SCALE, XORATOR_RUNS.
// `--json PATH` also writes the numbers as JSON (BENCH_fig13.json).

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
  datagen::SigmodOptions gen_opts;
  gen_opts.documents = bench::EnvInt("SIGMOD_DOCS", full ? 3000 : 400);
  int max_scale = bench::EnvInt("MAX_SCALE", 8);
  int runs = bench::EnvInt("RUNS", full ? 5 : 3);
  std::vector<int> scales;
  for (int s = 1; s <= max_scale; s *= 2) scales.push_back(s);

  auto corpus = datagen::SigmodGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::printf(
      "== Figure 13: SIGMOD Proceedings queries, Hybrid vs XORator (%d docs "
      "= %s, scales up to DSx%d, %d runs/query) ==\n"
      "Paper shape: ratios below 1 at DSx1/x2 (UDF-call overhead), above 1 "
      "at DSx4/x8 (joins outgrow the sort heap).\n\n",
      gen_opts.documents,
      benchutil::FmtBytes(datagen::CorpusBytes(corpus)).c_str(), max_scale,
      runs);

  auto result = bench::RunFigure(datagen::kSigmodDtd, docs,
                                 benchutil::SigmodQueries(), scales, runs);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigure(*result, benchutil::SigmodQueries(), scales);
  if (!json_path.empty()) {
    Status written = bench::WriteFigureJson(
        json_path, "fig13", std::to_string(gen_opts.documents) + " documents",
        runs, *result);
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
