// Shakespeare tour: builds the paper's Section 4.3 experiment end to end —
// a synthetic Shakespeare corpus loaded under both the Hybrid and the
// XORator mappings — then walks through the six workload queries, printing
// each query pair, its plan on both databases, and a sample of the results.
//
// Run: ./build/examples/shakespeare_tour [plays]

#include <cstdio>
#include <cstdlib>

#include "benchutil/benchutil.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "xorator.h"

int main(int argc, char** argv) {
  using namespace xorator;
  int plays = argc > 1 ? std::atoi(argv[1]) : 6;

  datagen::ShakespeareOptions gen_opts;
  gen_opts.plays = plays;
  auto corpus = datagen::ShakespeareGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::printf("Generated %d plays (%s of XML)\n\n", plays,
              benchutil::FmtBytes(datagen::CorpusBytes(corpus)).c_str());

  std::vector<std::string> advisor;
  for (const auto& q : benchutil::ShakespeareQueries()) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }

  benchutil::ExperimentOptions hybrid_opts;
  hybrid_opts.mapping = benchutil::Mapping::kHybrid;
  hybrid_opts.advisor_queries = advisor;
  auto hybrid =
      benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs, hybrid_opts);
  if (!hybrid.ok()) {
    std::fprintf(stderr, "hybrid: %s\n", hybrid.status().ToString().c_str());
    return 1;
  }
  benchutil::ExperimentOptions xorator_opts;
  xorator_opts.mapping = benchutil::Mapping::kXorator;
  xorator_opts.advisor_queries = advisor;
  auto xorator = benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                              xorator_opts);
  if (!xorator.ok()) {
    std::fprintf(stderr, "xorator: %s\n", xorator.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Hybrid schema: %zu tables, %s data, %s index\n"
      "XORator schema: %zu tables, %s data, %s index\n\n",
      hybrid->schema.tables.size(),
      benchutil::FmtBytes(hybrid->db->DataBytes()).c_str(),
      benchutil::FmtBytes(hybrid->db->IndexBytes()).c_str(),
      xorator->schema.tables.size(),
      benchutil::FmtBytes(xorator->db->DataBytes()).c_str(),
      benchutil::FmtBytes(xorator->db->IndexBytes()).c_str());

  for (const auto& q : benchutil::ShakespeareQueries()) {
    std::printf("==================== %s: %s ====================\n",
                q.id.c_str(), q.description.c_str());
    std::printf("-- Hybrid SQL --\n%s\n", q.hybrid_sql.c_str());
    auto h = hybrid->db->Query(q.hybrid_sql);
    if (!h.ok()) {
      std::fprintf(stderr, "hybrid failed: %s\n",
                   h.status().ToString().c_str());
      return 1;
    }
    auto h_plan = hybrid->db->Explain(q.hybrid_sql);
    std::printf("%zu rows; plan:\n%s", h->rows.size(),
                h_plan.ok() ? h_plan->c_str()
                            : h_plan.status().ToString().c_str());
    std::printf("-- XORator SQL --\n%s\n", q.xorator_sql.c_str());
    auto x = xorator->db->Query(q.xorator_sql);
    if (!x.ok()) {
      std::fprintf(stderr, "xorator failed: %s\n",
                   x.status().ToString().c_str());
      return 1;
    }
    auto x_plan = xorator->db->Explain(q.xorator_sql);
    std::printf("%zu rows; plan:\n%s", x->rows.size(),
                x_plan.ok() ? x_plan->c_str()
                            : x_plan.status().ToString().c_str());
    std::printf("sample result:\n%s\n", x->ToString(3).c_str());
  }
  return 0;
}
