#ifndef XORATOR_PERFBENCH_HARNESS_H_
#define XORATOR_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "common/result.h"
#include "ordb/buffer_pool.h"
#include "ordb/database.h"
#include "server/protocol.h"
#include "shred/loader.h"

namespace xorator::perfbench {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0);

// -- Statistics ---------------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);
/// The 10th percentile of a latency sample. On a shared host, phases in
/// which everything runs up to 1.7x slower come and go, some lasting
/// minutes; when they cover much of a run they drag its median with them,
/// while a low percentile stays with the quiet phases. The headline timings
/// use it.
double QuietMs(const std::vector<double>& ms);

// -- Host speed ---------------------------------------------------------------

/// On a shared host the same code runs up to 1.6x slower while other
/// tenants load the last-level cache and memory, and that load changes
/// over seconds and minutes, per CPU. A fixed reference kernel timed right
/// before and after each measured operation reads the same slowdown, so
/// the end-to-end timings are scaled to the speed at which the kernel takes
/// kReferenceKernelMs.
constexpr double kReferenceKernelMs = 0.4;
/// Wall time of the reference kernel: 20,000 read-modify-writes at random
/// places in a 64 MB table. It does not touch the engine. The first call
/// allocates the table.
double ReferenceKernelMs();
/// The table's size, which every RSS reading taken after the first call
/// includes.
double ReferenceTableMb();
/// The factor that scales a time measured between two kernel runs to the
/// reference speed.
double HostScale(double kernel_before_ms, double kernel_after_ms);

// -- Outcome accounting -------------------------------------------------------

/// Operations attempted and failed (errors plus wrong answers) in this run.
/// The first few failures are described on stderr.
class Tally {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  /// Counts one operation; false (and a failure) unless `ok`.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// -- Answer fingerprints ------------------------------------------------------

/// Row count plus an order-independent hash of the rendered rows (each value
/// rendered as Value::ToString, which is also what the server sends).
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const ordb::QueryResult& result);
Fingerprint FingerprintOf(const server::ResultPayload& result);

// -- Process counters ---------------------------------------------------------

/// `write_bytes` and `syscw` of /proc/self/io (zeros when unreadable).
struct IoCounters {
  uint64_t write_bytes = 0;
  uint64_t write_syscalls = 0;
};
IoCounters ReadIoCounters();
/// VmHWM of /proc/self/status in MB.
double PeakRssMb();

// -- Corpora and loading ------------------------------------------------------

enum class Dataset { kShakespeare, kSigmod };

/// What to generate: distinct plays or proceedings documents, document 0
/// first, until their XML text is as close as whole documents get to
/// `target_bytes`. A size target rather than a document count keeps the
/// corpus size nearly the same for every seed. `small_plays` makes one-act plays of bench_server's scene shape
/// (2 scenes x 8 speeches), fine-grained enough to hit a small target.
struct CorpusShape {
  Dataset dataset = Dataset::kShakespeare;
  uint64_t target_bytes = 0;
  bool small_plays = false;
};

/// The generated documents as XML text: the engine receives only these.
struct Corpus {
  Dataset dataset = Dataset::kShakespeare;
  std::vector<std::string> texts;
  uint64_t bytes = 0;
};

/// Generates the documents from `seed` and serializes them (xml::Serialize).
Corpus MakeCorpus(const CorpusShape& shape, uint64_t seed);

const char* DtdOf(Dataset dataset);
const std::vector<benchutil::PaperQuery>& QueriesOf(Dataset dataset);

/// One database holding the corpus under one mapping.
struct LoadedDb {
  benchutil::Mapping mapping = benchutil::Mapping::kHybrid;
  std::unique_ptr<mapping::MappedSchema> schema;
  std::unique_ptr<ordb::Database> db;
  /// XML text bytes loaded so far.
  uint64_t input_bytes = 0;
};

/// Wall time of each base-load stage, in milliseconds.
struct LoadTimes {
  double parse_ms = 0;
  double load_ms = 0;
  double index_ms = 0;
  double runstats_ms = 0;
  double advise_ms = 0;
  double checkpoint_ms = 0;
  double total_ms = 0;
  shred::LoadReport report;
};

/// The base load every workload shares: parse the corpus text, open the
/// database, create the tables, load, build the ID indexes, run RunStats,
/// AdviseIndexes over both dialects of the paper queries, RunStats again,
/// then Checkpoint. Each call is timed (and traced).
[[nodiscard]] Result<LoadedDb> BaseLoad(const Corpus& corpus,
                                        benchutil::Mapping mapping,
                                        const ordb::DbOptions& options,
                                        LoadTimes* times);

/// Parses `texts` and loads them with one Loader::Load call.
[[nodiscard]] Result<shred::LoadReport> LoadTexts(
    LoadedDb* target, const std::vector<const std::string*>& texts,
    double* parse_ms);

/// Per-table content fingerprints (SELECT * FROM t) of a loaded database.
[[nodiscard]] Result<std::map<std::string, Fingerprint>> TableFingerprints(
    LoadedDb* loaded);

// -- Statements ---------------------------------------------------------------

/// One paper query in one dialect, bound to the database it runs on.
struct Statement {
  std::string query;  // "QS1"
  int index = 0;      // 1..6 within its query set
  bool xorator = false;
  std::string sql;
  ordb::Database* db = nullptr;
  Fingerprint expect;

  std::string key() const { return query + (xorator ? ".xorator" : ".hybrid"); }
};

/// The 12 statements (six queries, two dialects) of `dataset`.
std::vector<Statement> MakeStatements(Dataset dataset, ordb::Database* hybrid,
                                      ordb::Database* xorator);

/// Runs every statement once and records its fingerprint as the expected
/// answer.
[[nodiscard]] Status TakeFingerprints(std::vector<Statement>* statements);

/// A seeded permutation of 0..n-1.
std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed);

/// One in-process execution. Untraced it times Database::Query. Traced it
/// times ParseSql, Explain and Query as three spans under one operation
/// (so plan = Explain - ParseSql and execute = Query - Explain) and `ms`
/// covers all three. The answer is checked against the fingerprint.
struct Execution {
  double ms = 0;
  bool ok = false;
  ordb::UdfStats udf;
};
Execution Execute(const Statement& statement, Tally* tally);

/// Runs one statement and reports how it went (Execute, or a round trip
/// over the wire).
using Executor = std::function<Execution(const Statement&)>;

/// The query protocol: one client cycles the statements, each pass in a
/// seeded order, until `seconds` have passed (at least one pass). Latencies
/// are kept per statement key, plus buffer-pool and UDF counts per pass.
/// `execute` defaults to in-process Execute. With `traced` set, every
/// statement runs twice in a row, untraced (into the result) and traced
/// (into *traced), so both see the same host conditions; tracing is off
/// when the call returns.
struct SingleClientResult {
  std::map<std::string, std::vector<double>> ms_by_key;
  /// The same latencies times the HostScale of the kernels run right before
  /// and after each execution.
  std::map<std::string, std::vector<double>> scaled_ms_by_key;
  /// Every reference kernel time taken after an execution.
  std::vector<double> kernel_ms;
  std::vector<ordb::BufferPoolStats> pool_per_pass;
  std::vector<uint64_t> udf_calls_per_pass;
  std::vector<uint64_t> marshaled_bytes_per_pass;
};
SingleClientResult RunSingleClient(const std::vector<Statement>& statements,
                                   double seconds, uint64_t seed, Tally* tally,
                                   const Executor& execute = {},
                                   SingleClientResult* traced = nullptr);

/// `clients` concurrent in-process clients, each cycling the statements in
/// its own seeded order, until `seconds` have passed. Returns statements
/// per second: the 90th percentile over ten equal windows, which (like
/// QuietMs) keeps to the host's quiet phases.
double RunMultiClient(const std::vector<Statement>& statements, int clients,
                      double seconds, uint64_t seed, Tally* tally);

/// Geometric mean over the six queries of each query's QuietMs latency, for
/// one dialect.
double DialectGeomean(const std::map<std::string, std::vector<double>>& ms_by_key,
                      const std::vector<Statement>& statements, bool xorator);

/// Statements per second one client achieves when every statement takes its
/// QuietMs latency.
double ImpliedRate(const std::map<std::string, std::vector<double>>& ms_by_key);

/// CPUs this process may run on (what `nproc` prints).
int HostCpus();
/// min(nproc, 4): the client thread / connection cap.
int ClientThreads();

/// Confines the calling thread, and every thread it starts meanwhile, to
/// the first CPU it may run on; the destructor restores its own CPU set.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// -- Result reporting ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  // "lower" or "higher"
  uint64_t samples = 0;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload-specific numbers that are printed and written to the result
  /// file but not part of the BENCHMARK.json contract.
  std::vector<Metric> extra;
  std::vector<std::pair<std::string, std::string>> stamp;

  void AddE2e(std::string name, double value, std::string unit,
              std::string better, uint64_t samples);
  void AddLayer(std::string name, double value, std::string unit,
                std::string better, uint64_t samples);
  void AddExtra(std::string name, double value, std::string unit,
                std::string better, uint64_t samples);
  void Stamp(std::string key, std::string value);
};

}  // namespace xorator::perfbench

#endif  // XORATOR_PERFBENCH_HARNESS_H_
