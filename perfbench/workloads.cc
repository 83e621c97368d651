#include "workloads.h"

#include <unistd.h>

#include <filesystem>
#include <numeric>

#include "probes.h"
#include "trace.h"
#include "xadt/functions.h"

namespace xorator::perfbench {
namespace {

using benchutil::Mapping;

/// Set-ups per run: at least kSetups, and more while they have taken less
/// than kSetupBudgetS in all, so a set-up of milliseconds is still a median
/// of many; setup_s is their median.
constexpr size_t kSetups = 5;
constexpr double kSetupBudgetS = 1.0;
constexpr size_t kSmokeSetups = 2;

bool MoreSetups(const RunOptions& o, const std::vector<double>& setup_s) {
  if (o.smoke) return setup_s.size() < kSmokeSetups;
  return setup_s.size() < kSetups ||
         std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < kSetupBudgetS;
}

/// The sizes of one workload.
struct Scale {
  CorpusShape shape;
  /// DbOptions::buffer_pool_pages (8192 = the engine's default 64 MB).
  size_t pool_pages = 8192;
  /// load-append: XML appended after the base load, one document per batch.
  uint64_t append_bytes = 0;
};

Scale ScaleOf(const RunOptions& o) {
  const bool toy = o.smoke;
  if (o.workload == "qs-resident") {
    // The size of 8 plays at DSx4, as distinct plays.
    return {{Dataset::kShakespeare, toy ? 150'000u : 2'600'000u, false}, 8192, 0};
  }
  if (o.workload == "qg-spill") {
    // The size of 400 documents at DSx4: ~3 MB stored per mapping against
    // a 1 MB pool.
    return {{Dataset::kSigmod, toy ? 60'000u : 5'200'000u, false},
            toy ? size_t{16} : size_t{128}, 0};
  }
  if (o.workload == "load-append") {
    // 8 plays at DSx2, then DSx1 more.
    return {{Dataset::kShakespeare, toy ? 100'000u : 1'300'000u, false}, 8192,
            toy ? 60'000u : 650'000u};
  }
  // wire-short: about the bench_server corpus (3 plays), in one-act plays.
  return {{Dataset::kShakespeare, toy ? 20'000u : 64'000u, true}, 8192, 0};
}

std::string MappingName(Mapping m) {
  return m == Mapping::kXorator ? "xorator" : "hybrid";
}

/// Geometric mean over every statement key of its median latency.
double MixGeomean(const std::map<std::string, std::vector<double>>& ms_by_key) {
  std::vector<double> medians;
  for (const auto& [key, ms] : ms_by_key) medians.push_back(Median(ms));
  return Geomean(medians);
}

/// Write-path layer numbers gathered over the base loads (and appends) of a
/// run. Times of one "round" are summed over the two mappings.
struct LoadLayers {
  std::vector<double> parse_mb_per_s;
  std::vector<double> load_ms;
  std::vector<double> index_ms;
  std::vector<double> runstats_ms;
  std::vector<double> advise_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> doc_ms;
  std::vector<double> wal_records;
  std::vector<double> write_syscalls;
  std::vector<double> writebacks;
  uint64_t tuples = 0;
  uint64_t write_bytes = 0;
  uint64_t input_bytes = 0;

  void AddBaseLoads(const LoadTimes& hybrid, const LoadTimes& xorator,
                    uint64_t input_bytes_each) {
    for (const LoadTimes* t : {&hybrid, &xorator}) {
      parse_mb_per_s.push_back(static_cast<double>(input_bytes_each) / 1e6 /
                               (t->parse_ms / 1000));
      checkpoint_ms.push_back(t->checkpoint_ms);
      doc_ms.insert(doc_ms.end(), t->report.doc_millis.begin(),
                    t->report.doc_millis.end());
    }
    load_ms.push_back(hybrid.load_ms + xorator.load_ms);
    index_ms.push_back(hybrid.index_ms + xorator.index_ms);
    runstats_ms.push_back(hybrid.runstats_ms + xorator.runstats_ms);
    advise_ms.push_back(hybrid.advise_ms + xorator.advise_ms);
    tuples = hybrid.report.tuples + xorator.report.tuples;
  }

  void AddWrites(const IoCounters& before, const IoCounters& after,
                 uint64_t input) {
    write_bytes += after.write_bytes - before.write_bytes;
    write_syscalls.push_back(
        static_cast<double>(after.write_syscalls - before.write_syscalls));
    input_bytes += input;
  }

  void AddTo(Report* r) const {
    const uint64_t n = load_ms.size();
    r->AddLayer("xml.parse_mb_per_s", Median(parse_mb_per_s), "MB/s", "higher",
                parse_mb_per_s.size());
    r->AddLayer("shred.load_ms", Median(load_ms), "ms", "lower", n);
    r->AddLayer("shred.doc_p99_ms", Percentile(doc_ms, 0.99), "ms", "lower",
                doc_ms.size());
    r->AddLayer("shred.tuples", static_cast<double>(tuples), "count", "lower",
                1);
    r->AddLayer("ordb.create_index_ms", Median(index_ms), "ms", "lower", n);
    r->AddLayer("ordb.runstats_ms", Median(runstats_ms), "ms", "lower", n);
    r->AddLayer("ordb.advise_ms", Median(advise_ms), "ms", "lower", n);
    r->AddLayer("ordb.checkpoint_ms", Median(checkpoint_ms), "ms", "lower",
                checkpoint_ms.size());
    r->AddLayer("ordb.wal.records_per_commit",
                wal_records.empty()
                    ? 0
                    : std::accumulate(wal_records.begin(), wal_records.end(), 0.0) /
                          static_cast<double>(wal_records.size()),
                "count", "lower", wal_records.size());
    r->AddLayer("ordb.pager.write_bytes_per_input_byte",
                input_bytes == 0 ? 0
                                 : static_cast<double>(write_bytes) /
                                       static_cast<double>(input_bytes),
                "ratio", "lower", write_syscalls.size());
    r->AddLayer("ordb.pager.write_syscalls", Median(write_syscalls), "count",
                "lower", write_syscalls.size());
  }
};

/// setup_s and stored_bytes_per_input_byte_* (plus load_mb_per_s_* as
/// extras): the numbers every workload's loads give.
void AddLoadE2e(const std::vector<double>& setup_s,
                const std::vector<double>& base_ms_hybrid,
                const std::vector<double>& base_ms_xorator,
                uint64_t base_input_bytes, double stored_hybrid,
                double stored_xorator, Report* report) {
  const double mb = static_cast<double>(base_input_bytes) / 1e6;
  report->AddE2e("setup_s", Median(setup_s), "s", "lower", setup_s.size());
  report->AddExtra("load_mb_per_s_hybrid", mb / (Median(base_ms_hybrid) / 1000),
                   "MB/s", "higher", base_ms_hybrid.size());
  report->AddExtra("load_mb_per_s_xorator",
                   mb / (Median(base_ms_xorator) / 1000), "MB/s", "higher",
                   base_ms_xorator.size());
  report->AddE2e("stored_bytes_per_input_byte_hybrid", stored_hybrid, "ratio",
                 "lower", 1);
  report->AddE2e("stored_bytes_per_input_byte_xorator", stored_xorator,
                 "ratio", "lower", 1);
}

double StoredRatio(const LoadedDb& loaded) {
  return static_cast<double>(loaded.db->DataBytes() + loaded.db->IndexBytes()) /
         static_cast<double>(loaded.input_bytes);
}

// -- Fixtures of the query workloads -------------------------------------------

/// The corpus loaded under both mappings, plus the 12 statements with their
/// expected answers.
struct QueryFixture {
  Corpus corpus;
  LoadedDb hybrid;
  LoadedDb xorator;
  LoadTimes hybrid_load;
  LoadTimes xorator_load;
  std::vector<Statement> statements;
};

Result<std::unique_ptr<QueryFixture>> BuildQueryFixture(const Scale& scale,
                                                        uint64_t seed) {
  auto fx = std::make_unique<QueryFixture>();
  fx->corpus = MakeCorpus(scale.shape, seed);
  ordb::DbOptions options;
  options.buffer_pool_pages = scale.pool_pages;
  ASSIGN_OR_RETURN(fx->hybrid, BaseLoad(fx->corpus, Mapping::kHybrid,
                                        options, &fx->hybrid_load));
  ASSIGN_OR_RETURN(fx->xorator, BaseLoad(fx->corpus, Mapping::kXorator,
                                         options, &fx->xorator_load));
  fx->statements = MakeStatements(fx->corpus.dataset, fx->hybrid.db.get(),
                                  fx->xorator.db.get());
  RETURN_IF_ERROR(TakeFingerprints(&fx->statements));
  return fx;
}

bool LoadedCleanly(const shred::LoadReport& report) {
  return report.skipped == 0 && report.cancelled == 0;
}

/// The repeated set-up of a query workload: the last fixture built, each
/// set-up's wall time and the base-load numbers of every set-up.
struct QuerySetup {
  std::unique_ptr<QueryFixture> fixture;
  std::vector<double> setup_s;
  std::vector<double> base_ms_hybrid;
  std::vector<double> base_ms_xorator;
  LoadLayers layers;
};

Status SetUpQueries(const RunOptions& o, const Scale& scale, Tally* tally,
                    QuerySetup* out) {
  while (MoreSetups(o, out->setup_s)) {
    out->fixture.reset();  // one fixture alive at a time
    const IoCounters io0 = ReadIoCounters();
    const double kernel_ms = ReferenceKernelMs();
    const Clock::time_point t0 = Clock::now();
    ASSIGN_OR_RETURN(out->fixture, BuildQueryFixture(scale, o.seed));
    const double ms = MillisSince(t0);
    out->setup_s.push_back(ms * HostScale(kernel_ms, ReferenceKernelMs()) /
                           1000);
    const QueryFixture& fx = *out->fixture;
    out->layers.AddWrites(io0, ReadIoCounters(), 2 * fx.hybrid.input_bytes);
    out->layers.AddBaseLoads(fx.hybrid_load, fx.xorator_load,
                             fx.hybrid.input_bytes);
    out->base_ms_hybrid.push_back(fx.hybrid_load.total_ms);
    out->base_ms_xorator.push_back(fx.xorator_load.total_ms);
    tally->Check(LoadedCleanly(fx.hybrid_load.report) &&
                     LoadedCleanly(fx.xorator_load.report),
                 "set-up load skipped documents");
  }
  if (o.corrupt_fingerprint) out->fixture->statements.front().expect.hash ^= 1;
  return Status::OK();
}

/// The end-to-end metrics of a query workload: set-up and sizes from the
/// set-ups; the dialect geomeans and the throughput from the single client's
/// host-scaled latencies.
void ReportQueryE2e(const QuerySetup& setup, const SingleClientResult& client,
                    Report* report) {
  const QueryFixture& fx = *setup.fixture;
  AddLoadE2e(setup.setup_s, setup.base_ms_hybrid, setup.base_ms_xorator,
             fx.hybrid.input_bytes, StoredRatio(fx.hybrid),
             StoredRatio(fx.xorator), report);
  const uint64_t passes = client.pool_per_pass.size();
  const auto& scaled = client.scaled_ms_by_key;
  report->AddE2e("xorator_geomean_ms",
                 DialectGeomean(scaled, fx.statements, true), "ms", "lower",
                 passes);
  report->AddE2e("hybrid_geomean_ms",
                 DialectGeomean(scaled, fx.statements, false), "ms", "lower",
                 passes);
  report->AddE2e("throughput_ops_per_s", ImpliedRate(scaled), "ops/s",
                 "higher", passes);
  report->AddExtra("xorator_geomean_raw_ms",
                   DialectGeomean(client.ms_by_key, fx.statements, true), "ms",
                   "lower", passes);
  report->AddExtra("hybrid_geomean_raw_ms",
                   DialectGeomean(client.ms_by_key, fx.statements, false), "ms",
                   "lower", passes);
  report->AddExtra("reference_kernel_ms", Median(client.kernel_ms), "ms",
                   "lower", client.kernel_ms.size());
}

void StampScale(const QueryFixture& fx, const Scale& scale, Report* report) {
  report->Stamp("corpus_bytes", std::to_string(fx.hybrid.input_bytes));
  report->Stamp("pool_pages", std::to_string(scale.pool_pages));
}

void AddStatementExtras(const SingleClientResult& result, const char* suffix,
                        Report* report) {
  for (const auto& [key, ms] : result.ms_by_key) {
    report->AddExtra(key + suffix, Median(ms), "ms", "lower", ms.size());
  }
}

/// The per-layer probes every traced run ends with.
Status RunCommonProbes(const RunOptions& o, const QueryFixture& fx,
                       const Servers* wire_counters, Report* report,
                       Tally* tally) {
  const double s = o.seconds;
  Tracer::SetEnabled(true);
  RETURN_IF_ERROR(ReportXadtScans(fx.corpus, 0.1 * s, report, tally));
  RETURN_IF_ERROR(ReportUdfOverBuiltin(fx.corpus.dataset, fx.hybrid.db.get(),
                                       0.05 * s, report, tally));
  RETURN_IF_ERROR(
      ReportWireProbe(fx.statements, 0.1 * s, wire_counters, report, tally));
  Tracer::SetEnabled(false);
  report->AddLayer("ordb.inproc_qps",
                   RunMultiClient(fx.statements, ClientThreads(), 0.1 * s,
                                  o.seed, tally),
                   "statements/s", "higher", 1);
  return Status::OK();
}

/// Statement-level layers from an in-process probe: one warm-up pass, then
/// paired untraced and traced executions.
void ProbeStatementLayers(const RunOptions& o, const QueryFixture& fx,
                          double seconds, Report* report, Tally* tally) {
  RunSingleClient(fx.statements, 0, o.seed, tally);
  SingleClientResult traced;
  const SingleClientResult untraced =
      RunSingleClient(fx.statements, seconds, o.seed, tally, {}, &traced);
  ReportStatementLayers(fx.statements, Tracer::Snapshot(), untraced.ms_by_key,
                        report, tally);
  ReportPassCounters(untraced, report);
}

void ReportTraceOverhead(const SingleClientResult& untraced,
                         const SingleClientResult& traced, Report* report) {
  report->AddLayer("trace.overhead_pct",
                   100 * (MixGeomean(traced.ms_by_key) /
                              MixGeomean(untraced.ms_by_key) -
                          1),
                   "%", "lower", untraced.pool_per_pass.size());
}

std::vector<double> PassWritebacks(const SingleClientResult& result) {
  std::vector<double> out;
  for (const ordb::BufferPoolStats& p : result.pool_per_pass) {
    out.push_back(static_cast<double>(p.writebacks));
  }
  return out;
}

// -- qs-resident and qg-spill ----------------------------------------------------

Status RunInProcess(const RunOptions& o, Tally* tally, Report* report) {
  const Scale scale = ScaleOf(o);
  QuerySetup setup;
  RETURN_IF_ERROR(SetUpQueries(o, scale, tally, &setup));
  const QueryFixture& fx = *setup.fixture;
  const std::vector<Statement>& stmts = fx.statements;
  StampScale(fx, scale, report);
  const double s = o.seconds;

  if (!o.trace) {
    const SingleClientResult p1 = RunSingleClient(stmts, s, o.seed, tally);
    ReportQueryE2e(setup, p1, report);
    AddStatementExtras(p1, "_p50_ms", report);
    return Status::OK();
  }

  SingleClientResult traced;
  const SingleClientResult untraced =
      RunSingleClient(stmts, 0.7 * s, o.seed, tally, {}, &traced);
  ReportTraceOverhead(untraced, traced, report);
  ReportStatementLayers(stmts, Tracer::Snapshot(), untraced.ms_by_key, report,
                        tally);
  ReportPassCounters(untraced, report);
  const std::vector<double> writebacks = PassWritebacks(untraced);
  report->AddLayer("ordb.buffer_pool.writebacks", Median(writebacks), "count",
                   "lower", writebacks.size());
  setup.layers.AddTo(report);
  return RunCommonProbes(o, fx, nullptr, report, tally);
}

// -- wire-short ----------------------------------------------------------------

Status RunWireShort(const RunOptions& o, Tally* tally, Report* report) {
  const Scale scale = ScaleOf(o);
  QuerySetup setup;
  RETURN_IF_ERROR(SetUpQueries(o, scale, tally, &setup));
  const QueryFixture& fx = *setup.fixture;
  const std::vector<Statement>& stmts = fx.statements;
  StampScale(fx, scale, report);
  const double s = o.seconds;

  // Server and client threads share one CPU while the workload runs, so a
  // round trip hands the CPU from thread to thread instead of waking an
  // idle virtual CPU, whose latency drifts with the host's load. The layer
  // probes at the end run unpinned, as on every workload.
  std::unique_ptr<Servers> servers;
  {
    const OneCpu pin;
    ASSIGN_OR_RETURN(servers, Servers::Start(stmts));
    std::map<ordb::Database*, std::unique_ptr<server::Client>> clients;
    for (const Statement& st : stmts) {
      if (clients.count(st.db) == 0) clients[st.db] = servers->Connect(st.db);
    }
    const Executor wire = [&](const Statement& st) {
      return WireExecute(clients[st.db].get(), st, tally);
    };
    // Warm-up: connections, server threads and caches; not reported.
    RunSingleClient(stmts, 0.05 * s, o.seed, tally, wire);

    if (!o.trace) {
      const SingleClientResult p1 =
          RunSingleClient(stmts, 0.95 * s, o.seed, tally, wire);
      tally->Check(servers->rejected() == 0, "the server rejected requests");
      std::vector<double> rtt;
      for (const auto& [key, ms] : p1.ms_by_key) {
        rtt.insert(rtt.end(), ms.begin(), ms.end());
      }
      ReportQueryE2e(setup, p1, report);
      report->AddExtra("rtt_p50_ms", Median(rtt), "ms", "lower", rtt.size());
      report->AddExtra("rtt_p99_ms", Percentile(rtt, 0.99), "ms", "lower",
                       rtt.size());
      AddStatementExtras(p1, "_rtt_p50_ms", report);
      return Status::OK();
    }

    SingleClientResult traced;
    const SingleClientResult untraced =
        RunSingleClient(stmts, 0.4 * s, o.seed, tally, wire, &traced);
    ReportTraceOverhead(untraced, traced, report);
    ProbeStatementLayers(o, fx, 0.2 * s, report, tally);
    const std::vector<double> writebacks = PassWritebacks(untraced);
    report->AddLayer("ordb.buffer_pool.writebacks", Median(writebacks), "count",
                     "lower", writebacks.size());
  }
  setup.layers.AddTo(report);
  return RunCommonProbes(o, fx, servers.get(), report, tally);
}

// -- load-append ---------------------------------------------------------------

/// What a correct load-append iteration produces for one mapping, computed
/// in set-up on a memory-backed database by the same steps.
struct AppendReference {
  uint64_t base_tuples = 0;
  std::vector<uint64_t> batch_tuples;
  std::map<std::string, Fingerprint> tables;
};

/// The load-append input: the base corpus, then the documents appended
/// after it (the next documents of the same seeded sequence).
struct AppendCorpus {
  Corpus base;
  std::vector<std::string> appends;
  uint64_t append_bytes = 0;
};

AppendCorpus MakeAppendCorpus(const Scale& scale, uint64_t seed) {
  CorpusShape shape = scale.shape;
  shape.target_bytes += scale.append_bytes;
  Corpus all = MakeCorpus(shape, seed);
  AppendCorpus out;
  out.base.dataset = all.dataset;
  for (std::string& text : all.texts) {
    if (out.base.bytes < scale.shape.target_bytes) {
      out.base.bytes += text.size();
      out.base.texts.push_back(std::move(text));
    } else {
      out.append_bytes += text.size();
      out.appends.push_back(std::move(text));
    }
  }
  return out;
}

Result<AppendReference> BuildAppendReference(const AppendCorpus& input,
                                             Mapping mapping) {
  AppendReference ref;
  LoadTimes times;
  ASSIGN_OR_RETURN(LoadedDb loaded, BaseLoad(input.base, mapping, {}, &times));
  ref.base_tuples = times.report.tuples;
  for (const std::string& text : input.appends) {
    double parse_ms = 0;
    ASSIGN_OR_RETURN(shred::LoadReport r, LoadTexts(&loaded, {&text}, &parse_ms));
    ref.batch_tuples.push_back(r.tuples);
  }
  ASSIGN_OR_RETURN(ref.tables, TableFingerprints(&loaded));
  return ref;
}

/// Samples of one mapping over a run's iterations.
struct AppendSamples {
  std::vector<double> base_ms;
  std::vector<double> batch_ms;
  std::vector<double> reopen_ms;
  /// The same times scaled by HostScale; the end-to-end numbers use these.
  std::vector<double> scaled_base_ms;
  std::vector<double> scaled_batch_ms;
  std::vector<double> scaled_reopen_ms;
  std::vector<double> kernel_ms;
  double stored_ratio = 0;

  double StageGeomean(bool scaled) const {
    return scaled ? Geomean({QuietMs(scaled_base_ms), QuietMs(scaled_batch_ms),
                             QuietMs(scaled_reopen_ms)})
                  : Geomean({QuietMs(base_ms), QuietMs(batch_ms),
                             QuietMs(reopen_ms)});
  }
};

/// Removes a directory tree when it goes out of scope.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One iteration for one mapping: base load into a fresh file-backed
/// database, append one document per committed batch, close, reopen and
/// compare every table with the reference.
Status RunAppendIteration(const AppendCorpus& input, Mapping mapping,
                          const AppendReference& ref, const std::string& dir,
                          AppendSamples* samples, LoadTimes* base,
                          LoadLayers* layers, Tally* tally) {
  const std::string name = MappingName(mapping);
  std::filesystem::create_directories(dir);
  ordb::DbOptions options;
  options.path = dir + "/xo.db";
  // Reference kernels bracket every stage; one stage's closing kernel opens
  // the next, as only bookkeeping runs between them.
  double kernel = ReferenceKernelMs();
  auto record = [&](std::vector<double>* raw, std::vector<double>* scaled,
                    double ms) {
    const double after = ReferenceKernelMs();
    raw->push_back(ms);
    scaled->push_back(ms * HostScale(kernel, after));
    samples->kernel_ms.push_back(after);
    kernel = after;
  };
  const IoCounters io0 = ReadIoCounters();
  ASSIGN_OR_RETURN(LoadedDb loaded,
                   BaseLoad(input.base, mapping, options, base));
  record(&samples->base_ms, &samples->scaled_base_ms, base->total_ms);
  tally->Check(LoadedCleanly(base->report) &&
                   base->report.tuples == ref.base_tuples,
               name + ": base load differs from the reference");

  for (size_t p = 0; p < input.appends.size(); ++p) {
    Span op("load.append", /*new_op=*/true);
    const Clock::time_point t0 = Clock::now();
    const uint64_t wal_before = loaded.db->wal()->records_logged();
    double parse_ms = 0;
    ASSIGN_OR_RETURN(shred::LoadReport r,
                     LoadTexts(&loaded, {&input.appends[p]}, &parse_ms));
    layers->wal_records.push_back(
        static_cast<double>(loaded.db->wal()->records_logged() - wal_before));
    const Clock::time_point tc = Clock::now();
    {
      Span span("ordb.Database.Checkpoint");
      RETURN_IF_ERROR(loaded.db->Checkpoint());
    }
    layers->checkpoint_ms.push_back(MillisSince(tc));
    record(&samples->batch_ms, &samples->scaled_batch_ms, MillisSince(t0));
    tally->Check(LoadedCleanly(r) && r.tuples == ref.batch_tuples[p],
                 name + ": append batch differs from the reference");
  }
  layers->writebacks.push_back(
      static_cast<double>(loaded.db->buffer_pool()->stats().writebacks));

  const Clock::time_point t0 = Clock::now();
  {
    Span op("load.reopen", /*new_op=*/true);
    {
      Span span("ordb.Database.Close");
      RETURN_IF_ERROR(loaded.db->Close());
    }
    loaded.db.reset();
    Span span("ordb.Database.Open");
    ASSIGN_OR_RETURN(loaded.db, ordb::Database::Open(options));
  }
  record(&samples->reopen_ms, &samples->scaled_reopen_ms, MillisSince(t0));
  layers->AddWrites(io0, ReadIoCounters(), loaded.input_bytes);
  RETURN_IF_ERROR(xadt::RegisterXadtFunctions(loaded.db->functions()));

  ASSIGN_OR_RETURN(auto tables, TableFingerprints(&loaded));
  tally->Check(tables == ref.tables,
               name + ": tables after reopen differ from the reference");
  for (const auto& [table, fp] : ref.tables) {
    ASSIGN_OR_RETURN(ordb::QueryResult count,
                     loaded.db->Query("SELECT COUNT(*) FROM " + table));
    tally->Check(count.rows.size() == 1 && count.rows[0].size() == 1 &&
                     count.rows[0][0].ToString() == std::to_string(fp.rows),
                 name + ": COUNT(*) of " + table + " after reopen");
  }
  samples->stored_ratio = StoredRatio(loaded);
  return Status::OK();
}

Status RunLoadAppend(const RunOptions& o, Tally* tally, Report* report) {
  const Scale scale = ScaleOf(o);
  const Mapping mappings[2] = {Mapping::kHybrid, Mapping::kXorator};
  AppendCorpus input;
  AppendReference refs[2];
  std::vector<double> setup_s;
  while (MoreSetups(o, setup_s)) {
    const double kernel_ms = ReferenceKernelMs();
    const Clock::time_point t0 = Clock::now();
    input = MakeAppendCorpus(scale, o.seed);
    for (int m = 0; m < 2; ++m) {
      ASSIGN_OR_RETURN(refs[m], BuildAppendReference(input, mappings[m]));
    }
    const double ms = MillisSince(t0);
    setup_s.push_back(ms * HostScale(kernel_ms, ReferenceKernelMs()) / 1000);
  }
  if (o.corrupt_fingerprint) refs[1].tables.begin()->second.hash ^= 1;
  const uint64_t base_bytes = input.base.bytes;
  report->Stamp("corpus_bytes", std::to_string(base_bytes + input.append_bytes));
  report->Stamp("pool_pages", std::to_string(scale.pool_pages));

  // Databases stay until the run ends: deleting them mid-run would put the
  // file system's block frees into the next iteration's fsyncs.
  TempDir tmp(o.out_dir + "/tmp-" + std::to_string(getpid()));
  int databases = 0;
  LoadLayers layers;
  // With `traced` set, iterations alternate between untraced (into
  // `samples`) and traced (into `traced`), so both see the same host.
  auto iterate = [&](double seconds, AppendSamples* samples,
                     AppendSamples* traced) -> Status {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    int iteration = 0;
    do {
      const bool trace_this = traced != nullptr && iteration % 2 == 1;
      AppendSamples* into = trace_this ? traced : samples;
      Tracer::SetEnabled(trace_this);
      LoadTimes base[2];
      for (int k = 0; k < 2; ++k) {
        const int m = (iteration / 2 + k) % 2;  // alternate which goes first
        const std::string dir = tmp.path() + "/db-" +
                                std::to_string(databases++) + "-" +
                                MappingName(mappings[m]);
        RETURN_IF_ERROR(RunAppendIteration(input, mappings[m], refs[m], dir,
                                           &into[m], &base[m], &layers, tally));
      }
      Tracer::SetEnabled(false);
      layers.AddBaseLoads(base[0], base[1], base_bytes);
      ++iteration;
    } while (Clock::now() < deadline || (traced != nullptr && iteration < 2));
    return Status::OK();
  };

  if (!o.trace) {
    AppendSamples samples[2];
    RETURN_IF_ERROR(iterate(o.seconds, samples, nullptr));
    const AppendSamples& h = samples[0];
    const AppendSamples& x = samples[1];
    AddLoadE2e(setup_s, h.base_ms, x.base_ms, base_bytes, h.stored_ratio,
               x.stored_ratio, report);
    report->AddE2e("xorator_geomean_ms", x.StageGeomean(true), "ms", "lower",
                   x.base_ms.size());
    report->AddE2e("hybrid_geomean_ms", h.StageGeomean(true), "ms", "lower",
                   h.base_ms.size());
    // One document per batch, alternating between the two mappings.
    report->AddE2e("throughput_ops_per_s",
                   2000 / (QuietMs(h.scaled_batch_ms) + QuietMs(x.scaled_batch_ms)),
                   "ops/s", "higher", h.batch_ms.size() + x.batch_ms.size());
    report->AddExtra("xorator_geomean_raw_ms", x.StageGeomean(false), "ms",
                     "lower", x.base_ms.size());
    report->AddExtra("hybrid_geomean_raw_ms", h.StageGeomean(false), "ms",
                     "lower", h.base_ms.size());
    std::vector<double> kernel_ms = h.kernel_ms;
    kernel_ms.insert(kernel_ms.end(), x.kernel_ms.begin(), x.kernel_ms.end());
    report->AddExtra("reference_kernel_ms", Median(kernel_ms), "ms", "lower",
                     kernel_ms.size());
    for (int m = 0; m < 2; ++m) {
      const std::string name = MappingName(mappings[m]);
      report->AddExtra("append_docs_per_s_" + name,
                       1000 / Median(samples[m].batch_ms), "docs/s", "higher",
                       samples[m].batch_ms.size());
      report->AddExtra("base_load_ms_" + name, Median(samples[m].base_ms), "ms",
                       "lower", samples[m].base_ms.size());
      report->AddExtra("reopen_ms_" + name, Median(samples[m].reopen_ms), "ms",
                       "lower", samples[m].reopen_ms.size());
    }
    return Status::OK();
  }

  AppendSamples untraced[2];
  AppendSamples traced[2];
  RETURN_IF_ERROR(iterate(0.7 * o.seconds, untraced, traced));
  report->AddLayer(
      "trace.overhead_pct",
      100 * (Geomean({traced[0].StageGeomean(true),
                      traced[1].StageGeomean(true)}) /
                 Geomean({untraced[0].StageGeomean(true),
                          untraced[1].StageGeomean(true)}) -
             1),
      "%", "lower", traced[0].base_ms.size());
  report->AddLayer("ordb.buffer_pool.writebacks", Median(layers.writebacks),
                   "count", "lower", layers.writebacks.size());
  layers.AddTo(report);

  // The query layers do no timed work here; their probes run on the same
  // corpus base-loaded into memory-backed databases, so every per-layer
  // number is measured on every workload.
  ASSIGN_OR_RETURN(std::unique_ptr<QueryFixture> fx,
                   BuildQueryFixture(scale, o.seed));
  ProbeStatementLayers(o, *fx, 0.2 * o.seconds, report, tally);
  return RunCommonProbes(o, *fx, nullptr, report, tally);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "qs-resident", "qg-spill", "load-append", "wire-short"};
  return *names;
}

Status RunWorkload(const RunOptions& options, Tally* tally, Report* report) {
  if (options.workload == "qs-resident" || options.workload == "qg-spill") {
    return RunInProcess(options, tally, report);
  }
  if (options.workload == "load-append") {
    return RunLoadAppend(options, tally, report);
  }
  if (options.workload == "wire-short") {
    return RunWireShort(options, tally, report);
  }
  return Status::InvalidArgument("unknown workload '" + options.workload + "'");
}

}  // namespace xorator::perfbench
