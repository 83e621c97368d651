#include "figure_common.h"

#include <cstdlib>
#include <fstream>
#include <thread>

namespace xorator::bench {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;
using benchutil::PaperQuery;

int EnvInt(const char* name, int fallback) {
  std::string full = std::string("XORATOR_") + name;
  const char* value = std::getenv(full.c_str());
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atoi(value);
}

std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

Status WriteFigureJson(const std::string& path, const std::string& figure,
                       const std::string& corpus, int runs,
                       const FigureResult& result) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  auto cells = [&out](const std::vector<FigureCell>& list, bool with_query) {
    for (size_t i = 0; i < list.size(); ++i) {
      const FigureCell& c = list[i];
      out << "    {";
      if (with_query) out << "\"query\": \"" << c.query_id << "\", ";
      out << "\"scale\": " << c.scale << ", \"hybrid_ms\": " << c.hybrid_ms
          << ", \"xorator_ms\": " << c.xorator_ms << "}"
          << (i + 1 < list.size() ? "," : "") << "\n";
    }
  };
  out << "{\n  \"benchmark\": \"" << figure << "\",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"build_type\": \"" << XO_BENCH_BUILD_TYPE << "\",\n"
      << "  \"commit\": \"" << XO_BENCH_COMMIT << "\",\n"
      << "  \"corpus\": \"" << corpus << "\",\n"
      << "  \"runs\": " << runs << ",\n  \"queries\": [\n";
  cells(result.cells, true);
  out << "  ],\n  \"loading\": [\n";
  cells(result.loading, false);
  out << "  ],\n  \"hybrid_data_bytes\": " << result.hybrid_data_bytes
      << ",\n  \"xorator_data_bytes\": " << result.xorator_data_bytes
      << "\n}\n";
  out.close();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

Result<FigureResult> RunFigure(
    const std::string& dtd_text,
    const std::vector<const xml::Node*>& corpus,
    const std::vector<PaperQuery>& queries,
    const std::vector<int>& scales, int runs) {
  FigureResult result;
  std::vector<std::string> advisor;
  for (const PaperQuery& q : queries) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }
  for (int scale : scales) {
    ExperimentOptions hybrid_opts;
    hybrid_opts.mapping = Mapping::kHybrid;
    hybrid_opts.load_multiplier = scale;
    hybrid_opts.advisor_queries = advisor;
    XO_ASSIGN_OR_RETURN(auto hybrid,
                        BuildExperimentDb(dtd_text, corpus, hybrid_opts));

    ExperimentOptions xorator_opts;
    xorator_opts.mapping = Mapping::kXorator;
    xorator_opts.load_multiplier = scale;
    xorator_opts.advisor_queries = advisor;
    XO_ASSIGN_OR_RETURN(auto xorator,
                        BuildExperimentDb(dtd_text, corpus, xorator_opts));

    FigureCell load;
    load.query_id = "Loading";
    load.scale = scale;
    load.hybrid_ms = hybrid.load.load_millis;
    load.xorator_ms = xorator.load.load_millis;
    result.loading.push_back(load);

    for (const PaperQuery& q : queries) {
      FigureCell cell;
      cell.query_id = q.id;
      cell.scale = scale;
      XO_ASSIGN_OR_RETURN(
          cell.hybrid_ms,
          benchutil::TimeMedianOfMiddle(
              [&]() { return hybrid.db->Query(q.hybrid_sql).status(); },
              runs));
      XO_ASSIGN_OR_RETURN(
          cell.xorator_ms,
          benchutil::TimeMedianOfMiddle(
              [&]() { return xorator.db->Query(q.xorator_sql).status(); },
              runs));
      result.cells.push_back(cell);
    }
    result.hybrid_data_bytes = hybrid.db->DataBytes();
    result.xorator_data_bytes = xorator.db->DataBytes();
  }
  return result;
}

void PrintFigure(const FigureResult& result,
                 const std::vector<PaperQuery>& queries,
                 const std::vector<int>& scales) {
  std::vector<std::string> headers = {"Query"};
  for (int s : scales) {
    headers.push_back("DSx" + std::to_string(s) + " H(ms)");
    headers.push_back("DSx" + std::to_string(s) + " X(ms)");
    headers.push_back("DSx" + std::to_string(s) + " H/X");
  }
  benchutil::TablePrinter table(headers);
  auto add_rows = [&](const std::string& id) {
    std::vector<std::string> row = {id};
    for (int s : scales) {
      const FigureCell* found = nullptr;
      for (const FigureCell& c : result.cells) {
        if (c.query_id == id && c.scale == s) found = &c;
      }
      for (const FigureCell& c : result.loading) {
        if (c.query_id == id && c.scale == s) found = &c;
      }
      if (found == nullptr) {
        row.insert(row.end(), {"-", "-", "-"});
        continue;
      }
      row.push_back(benchutil::Fmt(found->hybrid_ms, 2));
      row.push_back(benchutil::Fmt(found->xorator_ms, 2));
      row.push_back(benchutil::Fmt(found->Ratio(), 2));
    }
    table.AddRow(row);
  };
  for (const PaperQuery& q : queries) add_rows(q.id);
  add_rows("Loading");
  table.Print();
  std::printf(
      "\nDatabase size at DSx%d: Hybrid %s, XORator %s (XORator/Hybrid = "
      "%s)\n",
      scales.back(), benchutil::FmtBytes(result.hybrid_data_bytes).c_str(),
      benchutil::FmtBytes(result.xorator_data_bytes).c_str(),
      benchutil::Fmt(static_cast<double>(result.xorator_data_bytes) /
                         static_cast<double>(result.hybrid_data_bytes),
                     2)
          .c_str());
}

}  // namespace xorator::bench
