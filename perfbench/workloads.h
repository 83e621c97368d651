#ifndef XORATOR_PERFBENCH_WORKLOADS_H_
#define XORATOR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"

namespace xorator::perfbench {

/// One benchmark run, as given on the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced runs report per-layer metrics; untraced runs end-to-end ones.
  bool trace = false;
  /// Toy scale, for the benchmark's own test.
  bool smoke = false;
  /// Test hook: perturb one expected answer so the run must fail.
  bool corrupt_fingerprint = false;
  /// Where result files, spans and the load workload's databases go.
  std::string out_dir;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload: sets it up several times (setup_s is the median),
/// measures for options.seconds, checks every answer into `tally`, and fills
/// `report`.
[[nodiscard]] Status RunWorkload(const RunOptions& options, Tally* tally,
                                 Report* report);

}  // namespace xorator::perfbench

#endif  // XORATOR_PERFBENCH_WORKLOADS_H_
