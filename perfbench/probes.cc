#include "probes.h"

#include <algorithm>
#include <cmath>

#include "xadt/xadt.h"
#include "xml/parser.h"

namespace xorator::perfbench {

// The attribution check: the traced medians of parse + plan + execute of a
// statement must land within this share of its untraced median, or within
// kAttributionFloorMs for statements too short for a share to mean much.
constexpr double kAttributionTolerance = 0.35;
constexpr double kAttributionFloorMs = 0.1;

Result<std::unique_ptr<Servers>> Servers::Start(
    const std::vector<Statement>& statements) {
  std::unique_ptr<Servers> out(new Servers());
  for (const Statement& s : statements) {
    if (out->servers_.count(s.db) > 0) continue;
    ASSIGN_OR_RETURN(out->servers_[s.db], server::Server::Start(s.db));
  }
  return out;
}

Servers::~Servers() {
  for (auto& [db, srv] : servers_) srv->Shutdown();
}

std::unique_ptr<server::Client> Servers::Connect(ordb::Database* db) const {
  server::ClientOptions options;
  options.port = servers_.at(db)->port();
  options.max_retries = 0;
  return std::make_unique<server::Client>(std::move(options));
}

uint64_t Servers::peak_queue_depth() const {
  uint64_t peak = 0;
  for (const auto& [db, srv] : servers_) {
    peak = std::max(peak, srv->server_stats().peak_queue_depth);
  }
  return peak;
}

uint64_t Servers::rejected() const {
  uint64_t rejected = 0;
  for (const auto& [db, srv] : servers_) {
    const server::ServerStats s = srv->server_stats();
    rejected += s.connections_rejected + s.statements_rejected_queue +
                s.statements_shed_readonly + s.statements_rejected_draining;
  }
  return rejected;
}

Execution WireExecute(server::Client* client, const Statement& statement,
                      Tally* tally, server::ResultPayload* payload) {
  Execution out;
  const Clock::time_point t0 = Clock::now();
  Result<server::ResultPayload> result = Status::Internal("not run");
  {
    Span op("wire." + statement.key(), /*new_op=*/true);
    Span span("server.Client.Query");
    result = client->Query(statement.sql);
  }
  out.ms = MillisSince(t0);
  if (!result.ok()) {
    tally->Fail(statement.key() + " over the wire: " +
                result.status().ToString());
    return out;
  }
  out.ok = tally->Check(FingerprintOf(*result) == statement.expect,
                        statement.key() +
                            " over the wire: answer differs from the "
                            "in-process fingerprint");
  if (payload != nullptr) *payload = std::move(result).value();
  return out;
}

void ReportStatementLayers(
    const std::vector<Statement>& statements,
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, std::vector<double>>& untraced_ms,
    Report* report, Tally* tally) {
  std::vector<double> parse_us;
  std::vector<double> plan_us;
  std::map<std::string, std::vector<double>> parse_ms, plan_ms, exec_ms;
  for (const auto& [op, members] : GroupByOp(spans)) {
    const SpanRecord* root = nullptr;
    const SpanRecord* parse = nullptr;
    const SpanRecord* explain = nullptr;
    const SpanRecord* query = nullptr;
    for (const SpanRecord* s : members) {
      if (s->parent == 0 && s->name.rfind("stmt.", 0) == 0) root = s;
      if (s->name == "ordb.sql.ParseSql") parse = s;
      if (s->name == "ordb.Database.Explain") explain = s;
      if (s->name == "ordb.Database.Query") query = s;
    }
    if (root == nullptr || parse == nullptr || explain == nullptr ||
        query == nullptr) {
      continue;
    }
    const std::string key = root->name.substr(5);
    parse_us.push_back(parse->millis() * 1000);
    plan_us.push_back((explain->millis() - parse->millis()) * 1000);
    parse_ms[key].push_back(parse->millis());
    plan_ms[key].push_back(explain->millis() - parse->millis());
    exec_ms[key].push_back(query->millis() - explain->millis());
  }
  report->AddLayer("ordb.sql.parse_us", Median(parse_us), "us", "lower",
                   parse_us.size());
  report->AddLayer("ordb.planner.plan_us", Median(plan_us), "us", "lower",
                   plan_us.size());

  double worst_err_pct = 0;
  for (const Statement& s : statements) {
    const std::string key = s.key();
    const std::vector<double>& exec = exec_ms[key];
    report->AddLayer("ordb.executor.q" + std::to_string(s.index) + "." +
                         (s.xorator ? "xorator" : "hybrid") + "_ms",
                     Median(exec), "ms", "lower", exec.size());
    auto untraced = untraced_ms.find(key);
    if (exec.empty() || untraced == untraced_ms.end()) {
      tally->Fail("no traced and untraced samples of " + key);
      continue;
    }
    const double reference = Median(untraced->second);
    const double attributed =
        Median(parse_ms[key]) + Median(plan_ms[key]) + Median(exec);
    const double err = std::abs(attributed - reference);
    worst_err_pct = std::max(worst_err_pct, 100 * err / reference);
    tally->Check(err <= std::max(kAttributionTolerance * reference,
                                 kAttributionFloorMs),
                 "attribution of " + key + ": parse+plan+execute " +
                     std::to_string(attributed) + " ms vs untraced median " +
                     std::to_string(reference) + " ms");
  }
  report->AddLayer("trace.attribution_err_pct", worst_err_pct, "%", "lower",
                   statements.size());
}

void ReportPassCounters(const SingleClientResult& result, Report* report) {
  std::vector<double> udf_calls(result.udf_calls_per_pass.begin(),
                                result.udf_calls_per_pass.end());
  std::vector<double> marshaled(result.marshaled_bytes_per_pass.begin(),
                                result.marshaled_bytes_per_pass.end());
  std::vector<double> misses;
  std::vector<double> evictions;
  double hits = 0;
  double lookups = 0;
  for (const ordb::BufferPoolStats& p : result.pool_per_pass) {
    misses.push_back(static_cast<double>(p.misses));
    evictions.push_back(static_cast<double>(p.evictions));
    hits += static_cast<double>(p.hits);
    lookups += static_cast<double>(p.hits + p.misses);
  }
  const uint64_t passes = result.pool_per_pass.size();
  report->AddLayer("ordb.functions.udf_calls", Median(udf_calls), "count",
                   "lower", passes);
  report->AddLayer("ordb.functions.marshaled_bytes", Median(marshaled),
                   "bytes", "lower", passes);
  report->AddLayer("ordb.buffer_pool.hit_ratio",
                   lookups > 0 ? hits / lookups : 0, "ratio", "higher",
                   passes);
  report->AddLayer("ordb.buffer_pool.misses_per_pass", Median(misses), "count",
                   "lower", passes);
  report->AddLayer("ordb.buffer_pool.evictions_per_pass", Median(evictions),
                   "count", "lower", passes);
}

namespace {

void CollectElements(const xml::Node* node, std::string_view name,
                     std::vector<const xml::Node*>* out) {
  if (!node->is_element()) return;
  if (node->name() == name) out->push_back(node);
  for (const auto& child : node->children()) {
    CollectElements(child.get(), name, out);
  }
}

/// The paper's XADT search shape per data set: QS3 (stage directions with
/// 'Rising') over speech lines, QG1 (titles with 'Join') over sections.
struct ScanShape {
  const char* container;
  const char* fragment;
  const char* root_elm;
  const char* search_elm;
  const char* search_key;
};

ScanShape ShapeOf(Dataset dataset) {
  if (dataset == Dataset::kShakespeare) {
    return {"SPEECH", "LINE", "LINE", "STAGEDIR", "Rising"};
  }
  return {"sList", "sListTuple", "aTuple", "title", "Join"};
}

/// One pass of FindKeyInElm + GetElm over every value. Returns the bytes
/// scanned; `hits` and `outputs` receive the answers.
Result<uint64_t> ScanPass(const std::vector<std::string>& values,
                          const ScanShape& shape, std::vector<int64_t>* hits,
                          std::vector<std::string>* outputs) {
  uint64_t bytes = 0;
  for (const std::string& v : values) {
    ASSIGN_OR_RETURN(int64_t hit,
                     xadt::FindKeyInElm(v, shape.search_elm, shape.search_key));
    ASSIGN_OR_RETURN(std::string got, xadt::GetElm(v, shape.root_elm,
                                                   shape.search_elm,
                                                   shape.search_key));
    bytes += 2 * v.size();
    if (hits != nullptr) hits->push_back(hit);
    if (outputs != nullptr) outputs->push_back(std::move(got));
  }
  return bytes;
}

}  // namespace

Status ReportXadtScans(const Corpus& corpus, double budget_s, Report* report,
                       Tally* tally) {
  const ScanShape shape = ShapeOf(corpus.dataset);
  std::vector<std::string> raw;
  std::vector<std::string> compressed;
  for (const std::string& text : corpus.texts) {
    ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(text));
    std::vector<const xml::Node*> containers;
    CollectElements(doc.root.get(), shape.container, &containers);
    for (const xml::Node* c : containers) {
      std::vector<const xml::Node*> fragments = c->ChildElements(shape.fragment);
      if (fragments.empty()) continue;
      raw.push_back(xadt::EncodeRaw(fragments));
      compressed.push_back(xadt::EncodeCompressed(fragments));
    }
  }

  // Both encodings must give the same answers.
  std::vector<int64_t> raw_hits, compressed_hits;
  std::vector<std::string> raw_out, compressed_out;
  RETURN_IF_ERROR(ScanPass(raw, shape, &raw_hits, &raw_out).status());
  RETURN_IF_ERROR(
      ScanPass(compressed, shape, &compressed_hits, &compressed_out).status());
  bool same = raw_hits == compressed_hits;
  for (size_t i = 0; same && i < raw_out.size(); ++i) {
    ASSIGN_OR_RETURN(std::string a, xadt::ToXmlString(raw_out[i]));
    ASSIGN_OR_RETURN(std::string b, xadt::ToXmlString(compressed_out[i]));
    same = a == b;
  }
  tally->Check(same && !raw.empty(),
               "XADT scans: raw and compressed encodings disagree");

  std::vector<double> raw_rate, compressed_rate;
  const Clock::time_point start = Clock::now();
  do {
    for (int encoding = 0; encoding < 2; ++encoding) {
      const bool is_raw = encoding == 0;
      Span span(is_raw ? "xadt.scan.raw" : "xadt.scan.compressed",
                /*new_op=*/true);
      const Clock::time_point t0 = Clock::now();
      ASSIGN_OR_RETURN(uint64_t bytes,
                       ScanPass(is_raw ? raw : compressed, shape, nullptr,
                                nullptr));
      const double mb_per_s =
          static_cast<double>(bytes) / 1e6 / (MillisSince(t0) / 1000);
      (is_raw ? raw_rate : compressed_rate).push_back(mb_per_s);
    }
  } while (MillisSince(start) < budget_s * 1000 || raw_rate.size() < 3);
  report->AddLayer("xadt.raw_scan_mb_per_s", Median(raw_rate), "MB/s",
                   "higher", raw_rate.size());
  report->AddLayer("xadt.compressed_scan_mb_per_s", Median(compressed_rate),
                   "MB/s", "higher", compressed_rate.size());
  return Status::OK();
}

Status ReportUdfOverBuiltin(Dataset dataset, ordb::Database* hybrid,
                            double budget_s, Report* report, Tally* tally) {
  // The Fig. 14 queries read SPEAKER values; on the proceedings data the
  // same shape reads author values.
  auto adapt = [dataset](std::string sql) {
    if (dataset == Dataset::kShakespeare) return sql;
    for (size_t at = sql.find("speaker"); at != std::string::npos;
         at = sql.find("speaker", at)) {
      sql.replace(at, 7, "author");
    }
    return sql;
  };
  std::vector<double> ratios;
  uint64_t samples = 0;
  const auto& pairs = benchutil::UdfOverheadQueries();
  for (const benchutil::PaperQuery& q : pairs) {
    const std::string builtin = adapt(q.hybrid_sql);
    const std::string udf = adapt(q.xorator_sql);
    std::vector<double> builtin_ms, udf_ms;
    const Clock::time_point start = Clock::now();
    do {
      Span op("udf_overhead." + q.id, /*new_op=*/true);
      Clock::time_point t0 = Clock::now();
      Result<ordb::QueryResult> b = Status::Internal("not run");
      {
        Span span("ordb.Database.Query");
        b = hybrid->Query(builtin);
      }
      builtin_ms.push_back(MillisSince(t0));
      t0 = Clock::now();
      Result<ordb::QueryResult> u = Status::Internal("not run");
      {
        Span span("ordb.Database.Query");
        u = hybrid->Query(udf);
      }
      udf_ms.push_back(MillisSince(t0));
      if (!b.ok()) return b.status();
      if (!u.ok()) return u.status();
      tally->Check(FingerprintOf(*b) == FingerprintOf(*u) && !b->rows.empty(),
                   q.id + ": UDF twin and built-in disagree");
    } while (MillisSince(start) < budget_s * 1000 / pairs.size() ||
             udf_ms.size() < 3);
    ratios.push_back(Median(udf_ms) / Median(builtin_ms));
    samples += udf_ms.size();
  }
  report->AddLayer("ordb.functions.udf_over_builtin", Geomean(ratios), "ratio",
                   "lower", samples);
  return Status::OK();
}

Status ReportWireProbe(const std::vector<Statement>& statements,
                       double budget_s, const Servers* counters,
                       Report* report, Tally* tally) {
  ASSIGN_OR_RETURN(std::unique_ptr<Servers> servers,
                   Servers::Start(statements));
  std::map<ordb::Database*, std::unique_ptr<server::Client>> clients;
  for (const Statement& s : statements) {
    if (clients.count(s.db) == 0) clients[s.db] = servers->Connect(s.db);
  }
  std::map<std::string, std::vector<double>> inproc_ms, wire_ms, protocol_us;
  const Clock::time_point start = Clock::now();
  do {
    for (const Statement& s : statements) {
      Clock::time_point t0 = Clock::now();
      Result<ordb::QueryResult> local = s.db->Query(s.sql);
      inproc_ms[s.key()].push_back(MillisSince(t0));
      if (!local.ok()) {
        tally->Fail(s.key() + ": " + local.status().ToString());
        continue;
      }
      tally->Check(FingerprintOf(*local) == s.expect,
                   s.key() + ": answer differs from its fingerprint");

      server::ResultPayload payload;
      const Execution wire = WireExecute(clients[s.db].get(), s, tally, &payload);
      wire_ms[s.key()].push_back(wire.ms);
      if (!wire.ok) continue;

      t0 = Clock::now();
      Result<std::string> frame = Status::Internal("not run");
      {
        Span span("server.EncodeResult", /*new_op=*/true);
        frame = server::EncodeResult(payload);
      }
      if (!frame.ok()) return frame.status();
      Result<server::ResultPayload> decoded = Status::Internal("not run");
      {
        Span span("server.DecodeResult", /*new_op=*/true);
        decoded = server::DecodeResult(
            std::string_view(*frame).substr(server::kFrameHeaderBytes));
      }
      protocol_us[s.key()].push_back(MillisSince(t0) * 1000);
      if (!decoded.ok()) return decoded.status();
      tally->Check(FingerprintOf(*decoded) == s.expect,
                   s.key() + ": answer changed in an encode/decode round trip");
    }
  } while (MillisSince(start) < budget_s * 1000);

  std::vector<double> overhead_us;
  double protocol_sum = 0;
  for (const Statement& s : statements) {
    overhead_us.push_back(
        (Median(wire_ms[s.key()]) - Median(inproc_ms[s.key()])) * 1000);
    protocol_sum += Median(protocol_us[s.key()]);
  }
  const uint64_t samples = wire_ms.empty() ? 0 : wire_ms.begin()->second.size();
  report->AddLayer("server.overhead_us", Median(overhead_us), "us", "lower",
                   samples);
  report->AddLayer("server.protocol_us",
                   protocol_sum / static_cast<double>(statements.size()), "us",
                   "lower", samples);
  const Servers* source = counters != nullptr ? counters : servers.get();
  report->AddLayer("server.peak_queue_depth",
                   static_cast<double>(source->peak_queue_depth()), "count",
                   "lower", 1);
  report->AddLayer("server.rejected", static_cast<double>(source->rejected()),
                   "count", "lower", 1);
  return Status::OK();
}

}  // namespace xorator::perfbench
