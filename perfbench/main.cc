// xo_perfbench: the repository's benchmark. One run sets up one workload
// from a seed, measures it for --seconds, checks every answer, and prints
// its metrics; the last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md in this directory; perfbench/run.py builds
// and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace xorator::perfbench {
namespace {

// Debug, Sanitize and ThreadSanitize builds arm the unchecked-Status tracker
// and the lock-rank detector: they measure a different program.
#if !defined(NDEBUG) || XORATOR_STATUS_CHECK || XO_LOCK_RANK_CHECK_ENABLED
constexpr bool kDebugChecksArmed = true;
#else
constexpr bool kDebugChecksArmed = false;
#endif

struct Args {
  RunOptions run;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  RunOptions& run = args->run;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      run.smoke = true;
    } else if (flag == "--corrupt-fingerprint") {
      run.corrupt_fingerprint = true;
    } else if ((v = value()) == nullptr) {
      std::fprintf(stderr, "xo_perfbench: %s needs a value\n", flag.c_str());
      return false;
    } else if (flag == "--workload") {
      run.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      run.trace = std::string(v) == "1";
    } else if (flag == "--out") {
      run.out_dir = v;
    } else if (flag == "--commit") {
      args->commit = v;
    } else {
      std::fprintf(stderr, "xo_perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == run.workload;
  if (!have_workload || !known || !(run.seconds > 0) || run.out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: xo_perfbench --workload "
                 "qs-resident|qg-spill|load-append|wire-short --seed N "
                 "--seconds S --trace 0|1 --out DIR [--commit ID] [--smoke] "
                 "[--corrupt-fingerprint]\n");
    return false;
  }
  return true;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string MetricsJson(const std::vector<Metric>& metrics, bool detailed) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (detailed) {
      out += ", \"better\": " + Quote(m.better) +
             ", \"samples\": " + std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-5s %-42s = %-14s %-12s (%s is better, n=%llu)\n", kind,
                m.name.c_str(), Number(m.value).c_str(), m.unit.c_str(),
                m.better.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

/// Metric values must be finite numbers; anything else is a failed check.
void CheckFinite(std::vector<Metric>* metrics, Tally* tally) {
  for (Metric& m : *metrics) {
    if (!tally->Check(std::isfinite(m.value), "metric " + m.name + " is not finite")) {
      m.value = 0;
    }
  }
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const RunOptions& run = args.run;
  if (kDebugChecksArmed) {
    std::fprintf(stderr,
                 "xo_perfbench: this %s build arms the unchecked-Status "
                 "tracker or the lock-rank detector; benchmark a Release "
                 "build\n",
                 XO_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Report report;
  report.Stamp("workload", Quote(run.workload));
  report.Stamp("seed", std::to_string(run.seed));
  report.Stamp("seconds", Number(run.seconds));
  report.Stamp("trace", run.trace ? "1" : "0");
  report.Stamp("smoke", run.smoke ? "1" : "0");
  report.Stamp("nproc", std::to_string(HostCpus()));
  report.Stamp("client_threads", std::to_string(ClientThreads()));
  report.Stamp("build_type", Quote(XO_PERFBENCH_BUILD_TYPE));
  report.Stamp("commit", Quote(args.commit));

  // Allocates the reference kernel's table before anything else, so the
  // table is in every RSS reading and peak_rss_mb can leave it out exactly.
  ReferenceKernelMs();
  Tally tally;
  Tracer::SetEnabled(run.trace);
  const Status status = RunWorkload(run, &tally, &report);
  Tracer::SetEnabled(false);
  if (!status.ok()) {
    std::fprintf(stderr, "xo_perfbench: %s failed: %s\n", run.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (!run.trace) {
    report.AddE2e("peak_rss_mb", PeakRssMb() - ReferenceTableMb(), "MB",
                  "lower", 1);
  }
  CheckFinite(&report.end_to_end, &tally);
  CheckFinite(&report.per_layer, &tally);

  const std::string tag = run.workload + "-seed" + std::to_string(run.seed) +
                          "-trace" + (run.trace ? "1" : "0");
  if (run.trace) {
    const std::string spans = run.out_dir + "/spans-" + tag + ".jsonl";
    if (!Tracer::WriteJsonLines(spans)) {
      tally.Fail("cannot write " + spans);
    }
    std::printf("# spans written to %s\n", spans.c_str());
    for (const auto& [name, t] : RollUp(Tracer::Snapshot())) {
      std::printf("# span  %-42s calls=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.total_ms, t.self_ms);
    }
  }

  const uint64_t attempted = std::max<uint64_t>(tally.attempted(), 1);
  const double failed_ratio =
      static_cast<double>(tally.failed()) / static_cast<double>(attempted);
  report.AddExtra("failed_ratio", failed_ratio, "failed/attempted", "lower",
                  attempted);
  const bool correct = tally.failed() == 0;

  std::string stamp = "{";
  for (size_t i = 0; i < report.stamp.size(); ++i) {
    if (i > 0) stamp += ", ";
    stamp += Quote(report.stamp[i].first) + ": " + report.stamp[i].second;
  }
  stamp += "}";
  std::printf("# stamp %s\n", stamp.c_str());
  PrintMetrics("e2e", report.end_to_end);
  PrintMetrics("layer", report.per_layer);
  PrintMetrics("extra", report.extra);

  const std::vector<Metric>& contract =
      run.trace ? report.per_layer : report.end_to_end;
  const std::string head = std::string("{\"correct\": ") +
                           (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(attempted) +
                           ", \"failed\": " + std::to_string(tally.failed());
  {
    const std::string path = run.out_dir + "/result-" + tag + ".json";
    std::ofstream out(path);
    out << head << ",\n \"stamp\": " << stamp
        << ",\n \"end_to_end\": " << MetricsJson(report.end_to_end, true)
        << ",\n \"per_layer\": " << MetricsJson(report.per_layer, true)
        << ",\n \"extra\": " << MetricsJson(report.extra, true) << "}\n";
    std::printf("# result written to %s\n", path.c_str());
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              MetricsJson(contract, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xorator::perfbench

int main(int argc, char** argv) { return xorator::perfbench::Run(argc, argv); }
