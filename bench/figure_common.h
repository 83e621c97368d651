#ifndef XORATOR_BENCH_FIGURE_COMMON_H_
#define XORATOR_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/benchutil.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "common/result.h"
#include "datagen/generators.h"

namespace xorator::bench {

/// One measured cell of a figure: per-query, per-scale times for both
/// systems.
struct FigureCell {
  std::string query_id;
  int scale = 1;
  double hybrid_ms = 0;
  double xorator_ms = 0;

  double Ratio() const {
    return xorator_ms > 0 ? hybrid_ms / xorator_ms : 0;
  }
};

struct FigureResult {
  std::vector<FigureCell> cells;           // queries x scales
  std::vector<FigureCell> loading;         // one per scale ("Loading")
  uint64_t hybrid_data_bytes = 0;          // at the largest scale
  uint64_t xorator_data_bytes = 0;
};

/// Runs the Figure 11 / Figure 13 protocol: for each scale factor, load the
/// corpus `scale` times into a Hybrid and an XORator database (timing the
/// loads), create the advised indexes, collect statistics, then time every
/// query with the paper's five-runs-average-middle-three rule.
Result<FigureResult> RunFigure(
    const std::string& dtd_text,
    const std::vector<const xml::Node*>& corpus,
    const std::vector<benchutil::PaperQuery>& queries,
    const std::vector<int>& scales, int runs);

/// Prints the per-query Hybrid/XORator ratio matrix in the layout of the
/// paper's figures (rows: queries + Loading; columns: DSx<scale>).
void PrintFigure(const FigureResult& result,
                 const std::vector<benchutil::PaperQuery>& queries,
                 const std::vector<int>& scales);

/// Reads an integer environment override (XORATOR_<name>), falling back to
/// `fallback`.
int EnvInt(const char* name, int fallback);

/// The PATH of a `--json PATH` argument, or "".
std::string JsonPathArg(int argc, char** argv);

/// Writes `result` to `path` as JSON: Hybrid/XORator milliseconds per query
/// and scale, load times per scale, database sizes, and the host context
/// (CPU count, build type and the commit at CMake configure time).
/// `corpus` describes the base corpus (e.g. "8 plays").
Status WriteFigureJson(const std::string& path, const std::string& figure,
                       const std::string& corpus, int runs,
                       const FigureResult& result);

}  // namespace xorator::bench

#endif  // XORATOR_BENCH_FIGURE_COMMON_H_
