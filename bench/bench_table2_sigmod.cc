// Reproduces Table 2 of the paper: number of tables, database size and
// index size for the synthetic SIGMOD-Proceedings data set, plus the
// compression decision of the XADT storage chooser.
//
// Environment: XORATOR_SIGMOD_DOCS (default 3000 at full scale, 600
// otherwise).

#include <cstdio>

#include "benchutil/benchutil.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "figure_common.h"
#include "shred/loader.h"

namespace xorator {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;

int Run() {
  datagen::SigmodOptions gen_opts;
  gen_opts.documents =
      bench::EnvInt("SIGMOD_DOCS", benchutil::FullScale() ? 3000 : 600);
  auto corpus = datagen::SigmodGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::printf(
      "== Table 2: SIGMOD Proceedings data set (%d documents, %s of XML) "
      "==\n",
      gen_opts.documents,
      benchutil::FmtBytes(datagen::CorpusBytes(corpus)).c_str());

  std::vector<std::string> advisor;
  for (const auto& q : benchutil::SigmodQueries()) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }

  ExperimentOptions hybrid_opts;
  hybrid_opts.mapping = Mapping::kHybrid;
  hybrid_opts.advisor_queries = advisor;
  auto hybrid = BuildExperimentDb(datagen::kSigmodDtd, docs, hybrid_opts);
  if (!hybrid.ok()) {
    std::fprintf(stderr, "hybrid: %s\n", hybrid.status().ToString().c_str());
    return 1;
  }

  ExperimentOptions xorator_opts;
  xorator_opts.mapping = Mapping::kXorator;
  xorator_opts.advisor_queries = advisor;
  auto xorator = BuildExperimentDb(datagen::kSigmodDtd, docs, xorator_opts);
  if (!xorator.ok()) {
    std::fprintf(stderr, "xorator: %s\n", xorator.status().ToString().c_str());
    return 1;
  }

  // Compression saving on the XADT column (paper: ~38%).
  ExperimentOptions raw_opts = xorator_opts;
  raw_opts.load_options.compression = false;
  auto raw = BuildExperimentDb(datagen::kSigmodDtd, docs, raw_opts);
  if (!raw.ok()) {
    std::fprintf(stderr, "raw: %s\n", raw.status().ToString().c_str());
    return 1;
  }

  benchutil::TablePrinter table(
      {"Metric", "Hybrid", "XORator", "Paper (Hybrid)", "Paper (XORator)"});
  table.AddRow({"Number of tables",
                std::to_string(hybrid->schema.tables.size()),
                std::to_string(xorator->schema.tables.size()), "7", "1"});
  table.AddRow({"Database size", benchutil::FmtBytes(hybrid->db->DataBytes()),
                benchutil::FmtBytes(xorator->db->DataBytes()), "23 MB",
                "15 MB"});
  table.AddRow({"Index size", benchutil::FmtBytes(hybrid->db->IndexBytes()),
                benchutil::FmtBytes(xorator->db->IndexBytes()), "34 MB",
                "2 MB"});
  table.Print();

  double size_ratio = static_cast<double>(xorator->db->DataBytes()) /
                      static_cast<double>(hybrid->db->DataBytes());
  double saving = 1.0 - static_cast<double>(xorator->db->DataBytes()) /
                            static_cast<double>(raw->db->DataBytes());
  std::printf(
      "\nXORator/Hybrid database size: %s (paper: ~0.65)\n"
      "XADT representation chosen: %s (paper: compressed); compression "
      "saves %s%% of the uncompressed database (paper: ~38%%)\n",
      benchutil::Fmt(size_ratio, 2).c_str(),
      xorator->load.used_compression ? "compressed" : "uncompressed",
      benchutil::Fmt(saving * 100, 1).c_str());
  return 0;
}

}  // namespace
}  // namespace xorator

int main() { return xorator::Run(); }
