#ifndef XORATOR_PERFBENCH_PROBES_H_
#define XORATOR_PERFBENCH_PROBES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"

namespace xorator::perfbench {

// -- The wire -----------------------------------------------------------------

/// One server per database the statements run on, on ephemeral loopback
/// ports.
class Servers {
 public:
  [[nodiscard]] static Result<std::unique_ptr<Servers>> Start(
      const std::vector<Statement>& statements);
  ~Servers();
  Servers(const Servers&) = delete;
  Servers& operator=(const Servers&) = delete;

  /// A fresh client (no retries: a rejection counts as a failure) for the
  /// server in front of `db`.
  std::unique_ptr<server::Client> Connect(ordb::Database* db) const;

  /// Highest queue depth seen and requests turned away, over all servers.
  uint64_t peak_queue_depth() const;
  uint64_t rejected() const;

 private:
  Servers() = default;
  std::map<ordb::Database*, std::unique_ptr<server::Server>> servers_;
};

/// One round trip of `statement` through `client`, checked against the
/// in-process fingerprint. Traced, it is one operation with a
/// server.Client.Query span. `payload` (optional) receives the answer.
Execution WireExecute(server::Client* client, const Statement& statement,
                      Tally* tally, server::ResultPayload* payload = nullptr);

// -- Per-layer probes (traced runs) --------------------------------------------

/// ordb.sql.parse_us, ordb.planner.plan_us, ordb.executor.qN.<dialect>_ms and
/// trace.attribution_err_pct from the traced statement operations in
/// `spans`, compared with `untraced_ms` (per statement key).
void ReportStatementLayers(
    const std::vector<Statement>& statements,
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, std::vector<double>>& untraced_ms,
    Report* report, Tally* tally);

/// ordb.functions.* counts per XORator pass and ordb.buffer_pool.* per pass.
void ReportPassCounters(const SingleClientResult& result, Report* report);

/// xadt.raw_scan_mb_per_s / xadt.compressed_scan_mb_per_s: FindKeyInElm and
/// GetElm over the corpus's XADT fragments (speech lines or proceedings
/// sections) in both encodings, whose answers must agree.
[[nodiscard]] Status ReportXadtScans(const Corpus& corpus, double budget_s,
                                     Report* report, Tally* tally);

/// ordb.functions.udf_over_builtin: the Fig. 14 QT1/QT2 pair (UDF twin vs
/// built-in) on the Hybrid database, whose answers must agree.
[[nodiscard]] Status ReportUdfOverBuiltin(Dataset dataset,
                                          ordb::Database* hybrid,
                                          double budget_s, Report* report,
                                          Tally* tally);

/// server.overhead_us (round trip minus in-process Query) and
/// server.protocol_us (EncodeResult + DecodeResult of the answer) per
/// statement, on servers started for the probe. When `counters` is null the
/// probe's own server counters fill server.peak_queue_depth and
/// server.rejected.
[[nodiscard]] Status ReportWireProbe(const std::vector<Statement>& statements,
                                     double budget_s, const Servers* counters,
                                     Report* report, Tally* tally);

}  // namespace xorator::perfbench

#endif  // XORATOR_PERFBENCH_PROBES_H_
