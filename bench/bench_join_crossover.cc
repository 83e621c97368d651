// Ablation for the Figure 13 crossover mechanism (Section 4.4): the same
// Hybrid join query executed with hash joins forced, with sort-merge joins
// forced, and under the default planner policy (the Fig. 13 setup, with
// the advisor's indexes), against the XORator single-table scan, across
// scale factors. The "auto joins" column lists the join operators the
// cost-based policy picked: three hash joins and one index-NL join at the
// default 300 documents up to DSx4; at 1,500 documents from DSx4 on, where
// hash build sides outgrow the sort heap, index-NL joins replace two of
// the hash joins rather than sort-merge. The XORator side stays a linear
// scan with a constant number of UDF calls per tuple.
//
//   build/bench/bench_join_crossover
//
// XORATOR_SIGMOD_DOCS, XORATOR_MAX_SCALE and XORATOR_RUNS shrink it.

#include <cstdio>
#include <string>
#include <utility>

#include "benchutil/benchutil.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "figure_common.h"

namespace xorator {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;

/// The join operators of an EXPLAIN plan, e.g. "3 hash + 1 index-NL".
std::string JoinMix(const std::string& plan) {
  const std::pair<const char*, const char*> kJoins[] = {
      {"HashJoin(", "hash"},
      {"SortMergeJoin(", "sort-merge"},
      {"IndexNLJoin(", "index-NL"},
      {"NestedLoopJoin(", "NL"}};
  std::string out;
  for (const auto& [op, name] : kJoins) {
    int n = 0;
    for (size_t pos = plan.find(op); pos != std::string::npos;
         pos = plan.find(op, pos + 1)) {
      ++n;
    }
    if (n == 0) continue;
    if (!out.empty()) out += " + ";
    out += std::to_string(n) + " " + name;
  }
  return out.empty() ? "none" : out;
}

int Run() {
  bool full = benchutil::FullScale();
  datagen::SigmodOptions gen_opts;
  gen_opts.documents = bench::EnvInt("SIGMOD_DOCS", full ? 1500 : 300);
  int max_scale = bench::EnvInt("MAX_SCALE", full ? 8 : 4);
  int runs = bench::EnvInt("RUNS", 3);
  // QG2: the five-way flattening join, the paper's most join-heavy query.
  const std::string hybrid_sql = benchutil::SigmodQueries()[1].hybrid_sql;
  const std::string xorator_sql = benchutil::SigmodQueries()[1].xorator_sql;

  // The Fig. 13 setup: the advisor sees every Fig. 13 statement, so the
  // default policy has the indexes bench_fig13 plans with.
  std::vector<std::string> advisor;
  for (const benchutil::PaperQuery& q : benchutil::SigmodQueries()) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }

  auto corpus = datagen::SigmodGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  std::printf(
      "== Join-algorithm ablation on QG2 (%d docs, scales up to DSx%d) ==\n"
      "Columns are milliseconds for the Hybrid plan under each forced join "
      "algorithm and the default policy (whose joins \"auto joins\" "
      "lists), and for the XORator UDF-scan plan.\n\n",
      gen_opts.documents, max_scale);

  benchutil::TablePrinter table({"Scale", "Hybrid hash", "Hybrid sort-merge",
                                 "Hybrid auto", "auto joins", "XORator scan"});
  for (int scale = 1; scale <= max_scale; scale *= 2) {
    std::string auto_joins;
    // `joins`, when given, receives the JoinMix of the plan.
    auto time_hybrid = [&](bool hash, size_t sort_heap, bool index,
                           std::string* joins = nullptr) -> Result<double> {
      ExperimentOptions opts;
      opts.mapping = Mapping::kHybrid;
      opts.load_multiplier = scale;
      opts.advisor_queries = advisor;
      opts.db_options.planner.enable_hash_join = hash;
      opts.db_options.planner.enable_index_join = index;
      opts.db_options.planner.sort_heap_bytes = sort_heap;
      XO_ASSIGN_OR_RETURN(auto db,
                          BuildExperimentDb(datagen::kSigmodDtd, docs, opts));
      if (joins != nullptr) {
        XO_ASSIGN_OR_RETURN(std::string plan, db.db->Explain(hybrid_sql));
        *joins = JoinMix(plan);
      }
      return benchutil::TimeMedianOfMiddle(
          [&]() { return db.db->Query(hybrid_sql).status(); }, runs);
    };
    auto hash_ms =
        time_hybrid(true, static_cast<size_t>(1) << 40, false);  // always hash
    auto merge_ms = time_hybrid(false, 0, false);  // always sort-merge
    auto auto_ms = time_hybrid(true, 8u << 20, true,  // default policy
                               &auto_joins);

    ExperimentOptions xopts;
    xopts.mapping = Mapping::kXorator;
    xopts.load_multiplier = scale;
    xopts.advisor_queries = advisor;
    auto xdb = BuildExperimentDb(datagen::kSigmodDtd, docs, xopts);
    if (!hash_ms.ok() || !merge_ms.ok() || !auto_ms.ok() || !xdb.ok()) {
      std::fprintf(stderr, "scale %d failed\n", scale);
      return 1;
    }
    auto xorator_ms = benchutil::TimeMedianOfMiddle(
        [&]() { return xdb->db->Query(xorator_sql).status(); }, runs);
    if (!xorator_ms.ok()) {
      std::fprintf(stderr, "xorator scale %d failed\n", scale);
      return 1;
    }
    table.AddRow({"DSx" + std::to_string(scale), benchutil::Fmt(*hash_ms, 2),
                  benchutil::Fmt(*merge_ms, 2), benchutil::Fmt(*auto_ms, 2),
                  auto_joins, benchutil::Fmt(*xorator_ms, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: hash stays near-linear; sort-merge grows "
      "O(n log n); the auto policy uses the joins its column lists, the "
      "cheapest by estimated cost: 3 hash + 1 index-NL, tracking the hash "
      "column, until hash build sides outgrow the sort heap (at 1,500 "
      "documents from DSx4 on); then index-NL joins replace hash joins and "
      "auto runs below both forced columns. The XORator scan is linear with "
      "a higher per-tuple constant (UDF parsing).\n");
  return 0;
}

}  // namespace
}  // namespace xorator

int main() { return xorator::Run(); }
