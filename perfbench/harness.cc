#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/sql.h"
#include "trace.h"
#include "xadt/functions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::perfbench {

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double QuietMs(const std::vector<double>& ms) { return Percentile(ms, 0.10); }

void Tally::Fail(const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

bool Tally::Check(bool ok, const std::string& what) {
  if (ok) {
    Ok();
  } else {
    Fail(what);
  }
  return ok;
}

namespace {

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Adds one row (its rendered values) to an order-independent multiset hash.
template <typename Row, typename Render>
void AddRow(Fingerprint* fp, const Row& row, Render render) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& value : row) {
    h = Fnv1a(h, render(value));
    h = Fnv1a(h, "\x1f");
  }
  fp->hash += Mix(h);
  ++fp->rows;
}

}  // namespace

Fingerprint FingerprintOf(const ordb::QueryResult& result) {
  Fingerprint fp;
  for (const ordb::Tuple& row : result.rows) {
    AddRow(&fp, row, [](const ordb::Value& v) { return v.ToString(); });
  }
  return fp;
}

Fingerprint FingerprintOf(const server::ResultPayload& result) {
  Fingerprint fp;
  for (const std::vector<std::string>& row : result.rows) {
    AddRow(&fp, row, [](const std::string& v) -> const std::string& { return v; });
  }
  return fp;
}

IoCounters ReadIoCounters() {
  IoCounters out;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") out.write_bytes = value;
    if (key == "syscw:") out.write_syscalls = value;
  }
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Corpus MakeCorpus(const CorpusShape& shape, uint64_t seed) {
  Corpus corpus;
  corpus.dataset = shape.dataset;
  datagen::ShakespeareOptions plays;
  plays.seed = seed;
  if (shape.small_plays) {
    plays.acts_per_play = 1;
    plays.scenes_per_act = 2;
    plays.speeches_per_scene = 8;
  }
  datagen::SigmodOptions proceedings;
  proceedings.seed = seed;
  const datagen::ShakespeareGenerator play_gen(plays);
  const datagen::SigmodGenerator proceedings_gen(proceedings);
  for (int i = 0; corpus.bytes < shape.target_bytes; ++i) {
    std::unique_ptr<xml::Node> doc =
        shape.dataset == Dataset::kShakespeare
            ? play_gen.GeneratePlay(i)
            : proceedings_gen.GenerateProceedings(i);
    std::string text;
    {
      Span span("xml.Serialize");
      text = xml::Serialize(*doc);
    }
    // The last document is kept only if that lands closer to the target.
    const uint64_t with = corpus.bytes + text.size();
    if (with > shape.target_bytes && !corpus.texts.empty() &&
        with - shape.target_bytes > shape.target_bytes - corpus.bytes) {
      break;
    }
    corpus.bytes = with;
    corpus.texts.push_back(std::move(text));
  }
  return corpus;
}

const char* DtdOf(Dataset dataset) {
  return dataset == Dataset::kShakespeare ? datagen::kShakespeareDtd
                                          : datagen::kSigmodDtd;
}

const std::vector<benchutil::PaperQuery>& QueriesOf(Dataset dataset) {
  return dataset == Dataset::kShakespeare ? benchutil::ShakespeareQueries()
                                          : benchutil::SigmodQueries();
}

Result<shred::LoadReport> LoadTexts(LoadedDb* target,
                                    const std::vector<const std::string*>& texts,
                                    double* parse_ms) {
  std::vector<xml::Document> parsed;
  parsed.reserve(texts.size());
  const Clock::time_point t0 = Clock::now();
  for (const std::string* text : texts) {
    Span span("xml.ParseDocument");
    ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(*text));
    parsed.push_back(std::move(doc));
    target->input_bytes += text->size();
  }
  *parse_ms = MillisSince(t0);
  std::vector<const xml::Node*> roots;
  for (const xml::Document& doc : parsed) roots.push_back(doc.root.get());
  shred::Loader loader(target->db.get(), target->schema.get());
  Span span("shred.Loader.Load");
  return loader.Load(roots);
}

Result<LoadedDb> BaseLoad(const Corpus& corpus, benchutil::Mapping mapping,
                          const ordb::DbOptions& options, LoadTimes* times) {
  Span op("load.base", /*new_op=*/true);
  const Clock::time_point t0 = Clock::now();
  LoadedDb out;
  out.mapping = mapping;
  ASSIGN_OR_RETURN(mapping::MappedSchema schema,
                   benchutil::MapDtd(DtdOf(corpus.dataset), mapping));
  out.schema = std::make_unique<mapping::MappedSchema>(std::move(schema));
  {
    Span span("ordb.Database.Open");
    ASSIGN_OR_RETURN(out.db, ordb::Database::Open(options));
  }
  RETURN_IF_ERROR(xadt::RegisterXadtFunctions(out.db->functions()));
  {
    Span span("shred.Loader.CreateTables");
    RETURN_IF_ERROR(shred::Loader(out.db.get(), out.schema.get()).CreateTables());
  }

  std::vector<const std::string*> texts;
  for (const std::string& text : corpus.texts) texts.push_back(&text);
  Clock::time_point t = Clock::now();
  ASSIGN_OR_RETURN(times->report, LoadTexts(&out, texts, &times->parse_ms));
  times->load_ms = MillisSince(t) - times->parse_ms;

  // The ID indexes DB2 creates implicitly for the mapping's key columns.
  t = Clock::now();
  for (const mapping::TableSpec& table : out.schema->tables) {
    const int id = table.RoleIndex(mapping::ColumnRole::kId);
    if (id < 0) continue;
    Span span("ordb.Database.CreateIndex");
    RETURN_IF_ERROR(out.db->CreateIndex(table.name, table.columns[id].name));
  }
  times->index_ms = MillisSince(t);

  std::vector<std::string> advisor;
  for (const benchutil::PaperQuery& q : QueriesOf(corpus.dataset)) {
    advisor.push_back(q.hybrid_sql);
    advisor.push_back(q.xorator_sql);
  }
  t = Clock::now();
  {
    Span span("ordb.Database.RunStats");
    RETURN_IF_ERROR(out.db->RunStats());
  }
  times->runstats_ms = MillisSince(t);
  t = Clock::now();
  {
    Span span("ordb.Database.AdviseIndexes");
    RETURN_IF_ERROR(out.db->AdviseIndexes(advisor));
  }
  times->advise_ms = MillisSince(t);
  t = Clock::now();
  {
    Span span("ordb.Database.RunStats");
    RETURN_IF_ERROR(out.db->RunStats());
  }
  times->runstats_ms += MillisSince(t);
  t = Clock::now();
  {
    Span span("ordb.Database.Checkpoint");
    RETURN_IF_ERROR(out.db->Checkpoint());
  }
  times->checkpoint_ms = MillisSince(t);
  times->total_ms = MillisSince(t0);
  return out;
}

Result<std::map<std::string, Fingerprint>> TableFingerprints(LoadedDb* loaded) {
  std::map<std::string, Fingerprint> out;
  for (const mapping::TableSpec& table : loaded->schema->tables) {
    Span span("ordb.Database.Query");
    ASSIGN_OR_RETURN(ordb::QueryResult rows,
                     loaded->db->Query("SELECT * FROM " + table.name));
    out[table.name] = FingerprintOf(rows);
  }
  return out;
}

std::vector<Statement> MakeStatements(Dataset dataset, ordb::Database* hybrid,
                                      ordb::Database* xorator) {
  std::vector<Statement> out;
  int index = 0;
  for (const benchutil::PaperQuery& q : QueriesOf(dataset)) {
    ++index;
    out.push_back({q.id, index, false, q.hybrid_sql, hybrid, {}});
    out.push_back({q.id, index, true, q.xorator_sql, xorator, {}});
  }
  return out;
}

Status TakeFingerprints(std::vector<Statement>* statements) {
  for (Statement& s : *statements) {
    ASSIGN_OR_RETURN(ordb::QueryResult result, s.db->Query(s.sql));
    s.expect = FingerprintOf(result);
  }
  return Status::OK();
}

std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

Execution Execute(const Statement& s, Tally* tally) {
  Execution out;
  const Clock::time_point t0 = Clock::now();
  Result<ordb::QueryResult> result = Status::Internal("not run");
  if (Tracer::enabled()) {
    Span op("stmt." + s.key(), /*new_op=*/true);
    Status prefix;
    {
      Span span("ordb.sql.ParseSql");
      prefix = ordb::sql::ParseSql(s.sql).status();
    }
    if (prefix.ok()) {
      Span span("ordb.Database.Explain");
      prefix = s.db->Explain(s.sql).status();
    }
    if (prefix.ok()) {
      Span span("ordb.Database.Query");
      result = s.db->Query(s.sql);
    } else {
      result = prefix;
    }
  } else {
    result = s.db->Query(s.sql);
  }
  out.ms = MillisSince(t0);
  if (!result.ok()) {
    tally->Fail(s.key() + ": " + result.status().ToString());
    return out;
  }
  out.udf = result->udf_stats;
  out.ok = tally->Check(FingerprintOf(*result) == s.expect,
                        s.key() + ": answer differs from its fingerprint");
  return out;
}

namespace {

ordb::BufferPoolStats SumPoolStats(const std::set<ordb::Database*>& dbs) {
  ordb::BufferPoolStats sum;
  for (ordb::Database* db : dbs) {
    const ordb::BufferPoolStats s = db->buffer_pool()->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.writebacks += s.writebacks;
  }
  return sum;
}

/// 64 MB: far more than the share of the caches a process can count on,
/// so the kernel's accesses go to memory whatever the engine ran before it,
/// and its time does not depend on the engine's own cache footprint.
constexpr size_t kReferenceTableWords = size_t{8} << 20;

std::vector<uint64_t>& ReferenceTable() {
  static std::vector<uint64_t>* table = [] {
    auto* t = new std::vector<uint64_t>(kReferenceTableWords);
    std::iota(t->begin(), t->end(), uint64_t{1});  // makes every page resident
    return t;
  }();
  return *table;
}

}  // namespace

double ReferenceKernelMs() {
  std::vector<uint64_t>& table = ReferenceTable();
  static uint64_t x = 88172645463325252ull;  // xorshift64 state
  const Clock::time_point t0 = Clock::now();
  uint64_t sum = 0;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x % table.size()];
    slot += x;
    sum += slot;
  }
  table[0] += sum;  // keeps the loop from being optimized away
  return MillisSince(t0);
}

double ReferenceTableMb() {
  return static_cast<double>(kReferenceTableWords * sizeof(uint64_t)) /
         (1024.0 * 1024.0);
}

double HostScale(double kernel_before_ms, double kernel_after_ms) {
  return 2 * kReferenceKernelMs / (kernel_before_ms + kernel_after_ms);
}

SingleClientResult RunSingleClient(const std::vector<Statement>& statements,
                                   double seconds, uint64_t seed, Tally* tally,
                                   const Executor& execute,
                                   SingleClientResult* traced) {
  auto run = [&](const Statement& s) {
    return execute ? execute(s) : Execute(s, tally);
  };
  if (traced != nullptr) Tracer::SetEnabled(false);
  SingleClientResult out;
  std::set<ordb::Database*> dbs;
  for (const Statement& s : statements) dbs.insert(s.db);
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t pass = 0;
  do {
    const ordb::BufferPoolStats before = SumPoolStats(dbs);
    uint64_t udf_calls = 0;
    uint64_t marshaled = 0;
    for (size_t i : ShuffledOrder(statements.size(), seed * 7919 + pass)) {
      const Statement& s = statements[i];
      // In a pair the second run finds warmer caches, so which side goes
      // first alternates.
      const bool traced_first = traced != nullptr && (pass + i) % 2 == 1;
      auto run_traced = [&] {
        Tracer::SetEnabled(true);
        traced->ms_by_key[s.key()].push_back(run(s).ms);
        Tracer::SetEnabled(false);
      };
      if (traced_first) run_traced();
      const double k0 = ReferenceKernelMs();
      const Execution e = run(s);
      const double k1 = ReferenceKernelMs();
      out.ms_by_key[s.key()].push_back(e.ms);
      out.scaled_ms_by_key[s.key()].push_back(e.ms * HostScale(k0, k1));
      out.kernel_ms.push_back(k1);
      if (traced != nullptr && !traced_first) run_traced();
      if (s.xorator) {
        udf_calls += e.udf.scalar_calls + e.udf.table_calls;
        marshaled += e.udf.marshaled_bytes;
      }
    }
    const ordb::BufferPoolStats after = SumPoolStats(dbs);
    ordb::BufferPoolStats delta;
    delta.hits = after.hits - before.hits;
    delta.misses = after.misses - before.misses;
    delta.evictions = after.evictions - before.evictions;
    delta.writebacks = after.writebacks - before.writebacks;
    out.pool_per_pass.push_back(delta);
    out.udf_calls_per_pass.push_back(udf_calls);
    out.marshaled_bytes_per_pass.push_back(marshaled);
    ++pass;
  } while (Clock::now() < deadline);
  return out;
}

double RunMultiClient(const std::vector<Statement>& statements, int clients,
                      double seconds, uint64_t seed, Tally* tally) {
  std::vector<std::vector<Clock::time_point>> done(static_cast<size_t>(clients));
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (uint64_t pass = 0; Clock::now() < deadline; ++pass) {
        for (size_t i : ShuffledOrder(statements.size(),
                                      (seed + 1) * 104729 + c * 7919 + pass)) {
          if (Clock::now() >= deadline) break;
          Execute(statements[i], tally);
          done[static_cast<size_t>(c)].push_back(Clock::now());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  constexpr int kWindows = 10;
  const double window_s = seconds / kWindows;
  std::vector<double> counts(kWindows, 0);
  for (const auto& per_client : done) {
    for (Clock::time_point t : per_client) {
      const double at = std::chrono::duration<double>(t - start).count();
      const int w = static_cast<int>(at / window_s);
      if (w >= 0 && w < kWindows) counts[static_cast<size_t>(w)] += 1;
    }
  }
  return Percentile(counts, 0.9) / window_s;
}

double DialectGeomean(const std::map<std::string, std::vector<double>>& ms_by_key,
                      const std::vector<Statement>& statements, bool xorator) {
  std::vector<double> quiet;
  for (const Statement& s : statements) {
    if (s.xorator != xorator) continue;
    auto it = ms_by_key.find(s.key());
    if (it != ms_by_key.end()) quiet.push_back(QuietMs(it->second));
  }
  return Geomean(quiet);
}

double ImpliedRate(const std::map<std::string, std::vector<double>>& ms_by_key) {
  double total_ms = 0;
  for (const auto& [key, ms] : ms_by_key) total_ms += QuietMs(ms);
  return 1000 * static_cast<double>(ms_by_key.size()) / total_ms;
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int ClientThreads() { return std::clamp(HostCpus(), 1, 4); }

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void Report::AddE2e(std::string name, double value, std::string unit,
                    std::string better, uint64_t samples) {
  end_to_end.push_back({std::move(name), value, std::move(unit),
                        std::move(better), samples});
}

void Report::AddLayer(std::string name, double value, std::string unit,
                      std::string better, uint64_t samples) {
  per_layer.push_back({std::move(name), value, std::move(unit),
                       std::move(better), samples});
}

void Report::AddExtra(std::string name, double value, std::string unit,
                      std::string better, uint64_t samples) {
  extra.push_back({std::move(name), value, std::move(unit), std::move(better),
                   samples});
}

void Report::Stamp(std::string key, std::string value) {
  stamp.emplace_back(std::move(key), std::move(value));
}

}  // namespace xorator::perfbench
