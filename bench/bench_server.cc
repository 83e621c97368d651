// Latency/throughput benchmark for the network front end (DESIGN.md
// section 17): the paper's QS1 lookup fired over loopback at 1, 8 and 32
// concurrent connections against a default-sized server, recording p50/p99
// round-trip latency and aggregate qps per level.
//
// The second half measures the overload point the admission control is
// built for: with every engine slot and wait slot occupied by deliberately
// slow statements, excess requests must be REJECTED (kResourceExhausted +
// retry-after) in a small fraction of the service time — an overloaded
// server drains its backlog at rejection speed, not service speed.
//
// `--json=PATH` additionally writes the numbers as a JSON document (the
// checked-in BENCH_server.json is this output with XORATOR_OPS=500). Knobs:
// XORATOR_OPS (requests per connection), XORATOR_FULL=1 for the larger
// corpus.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/benchutil.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "figure_common.h"
#include "ordb/database.h"
#include "server/client.h"
#include "server/server.h"

namespace xorator {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;
using server::CallOptions;
using server::Client;
using server::ClientOptions;
using server::Server;
using server::ServerOptions;

constexpr int kSlowRows = 40;
constexpr int kSnoozeMillis = 5;
const char kSlowSql[] = "SELECT snooze(a) AS s FROM bench_slow";

double PercentileMillis(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0;
  std::sort(sorted_ms->begin(), sorted_ms->end());
  const size_t at = static_cast<size_t>(
      q * static_cast<double>(sorted_ms->size() - 1) + 0.5);
  return (*sorted_ms)[std::min(at, sorted_ms->size() - 1)];
}

struct LoadPoint {
  int connections = 0;
  size_t requests = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
};

/// Fires `ops` QS1 queries from each of `connections` concurrent clients
/// and summarizes the round-trip latency distribution.
LoadPoint MeasureLoad(const Server& srv, const std::string& sql,
                      int connections, int ops) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(connections));
  std::atomic<int> errors{0};
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.port = srv.port();
      Client client(std::move(options));
      lat[static_cast<size_t>(c)].reserve(static_cast<size_t>(ops));
      for (int i = 0; i < ops; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        auto r = client.Query(sql);
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        lat[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  std::vector<double> all;
  for (const auto& per_conn : lat) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  LoadPoint point;
  point.connections = connections;
  point.requests = all.size();
  point.p50_ms = PercentileMillis(&all, 0.50);
  point.p99_ms = PercentileMillis(&all, 0.99);
  point.qps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
  if (errors.load() != 0) {
    std::fprintf(stderr, "bench_server: %d errors at %d connections\n",
                 errors.load(), connections);
  }
  return point;
}

struct OverloadPoint {
  double service_p50_ms = 0;
  double rejection_p50_ms = 0;
  double rejection_p99_ms = 0;
  size_t rejections = 0;
  size_t non_rejections = 0;
};

/// Saturates a deliberately small server (2 engine slots, 2 wait slots) with
/// slow statements, then times how fast excess requests bounce off the
/// admission control.
Result<OverloadPoint> MeasureOverload(ordb::Database* db, int probes) {
  ServerOptions options;
  options.worker_threads = 2;
  options.max_queue_depth = 2;
  options.retry_after_millis = 25;
  XO_ASSIGN_OR_RETURN(std::unique_ptr<Server> srv, Server::Start(db, options));

  OverloadPoint point;

  // Service latency baseline: the slow statement alone.
  {
    ClientOptions copts;
    copts.port = srv->port();
    Client client(std::move(copts));
    std::vector<double> solo;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto r = client.Query(kSlowSql);
      const auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) return r.status();
      solo.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    point.service_p50_ms = PercentileMillis(&solo, 0.50);
  }

  // Warm the probe connection before the saturation so the rejection
  // timings measure admission, not TCP setup.
  ClientOptions popts;
  popts.port = srv->port();
  popts.max_retries = 0;
  Client probe(std::move(popts));
  if (Status warm = probe.Query("SELECT a FROM bench_slow").status();
      !warm.ok()) {
    return warm;
  }

  // Fill both engine slots and both wait slots, one blocker at a time so
  // none of them bounces off the wait cap.
  std::vector<std::thread> blockers;
  for (int b = 0; b < 4; ++b) {
    const uint64_t admitted_before = srv->server_stats().statements_admitted;
    blockers.emplace_back([&srv] {
      ClientOptions bopts;
      bopts.port = srv->port();
      bopts.max_retries = 0;
      Client client(std::move(bopts));
      auto r = client.Query(kSlowSql);
      if (!r.ok()) {
        std::fprintf(stderr, "bench_server: blocker failed: %s\n",
                     r.status().ToString().c_str());
      }
    });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (srv->server_stats().statements_admitted == admitted_before &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // The saturation window is kSlowRows * kSnoozeMillis = 200 ms; the probe
  // burst finishes in a few ms, well inside it.
  std::vector<double> rejected_ms;
  for (int i = 0; i < probes; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = probe.Query("SELECT a FROM bench_slow");
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
      rejected_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    } else {
      ++point.non_rejections;
      if (!r.ok()) r.status().IgnoreError();
    }
  }
  for (std::thread& b : blockers) b.join();

  point.rejections = rejected_ms.size();
  point.rejection_p50_ms = PercentileMillis(&rejected_ms, 0.50);
  point.rejection_p99_ms = PercentileMillis(&rejected_ms, 0.99);
  srv->Shutdown();
  return point;
}

int Run(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  const bool full = benchutil::FullScale();
  const int ops = bench::EnvInt("OPS", full ? 200 : 60);

  datagen::ShakespeareOptions gen;
  gen.plays = full ? 6 : 3;
  gen.acts_per_play = 2;
  gen.scenes_per_act = 2;
  gen.speeches_per_scene = 8;
  auto corpus = datagen::ShakespeareGenerator(gen).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());

  ExperimentOptions eopts;
  eopts.mapping = Mapping::kHybrid;
  auto built = BuildExperimentDb(datagen::kShakespeareDtd, docs, eopts);
  if (!built.ok()) {
    std::fprintf(stderr, "fixture failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  ordb::Database* db = built->db.get();

  // The slow statement for the overload half: ~200 ms of engine time per
  // execution, checkpointed per row so shutdown stays prompt.
  if (!db->Execute("CREATE TABLE bench_slow (a INTEGER)").ok()) return 1;
  for (int i = 0; i < kSlowRows; ++i) {
    if (!db->Execute("INSERT INTO bench_slow VALUES (" + std::to_string(i) +
                     ")")
             .ok()) {
      return 1;
    }
  }
  ordb::ScalarFunction snooze;
  snooze.name = "snooze";
  snooze.return_type = ordb::TypeId::kInteger;
  snooze.arity = 1;
  snooze.impl =
      [](const std::vector<ordb::Value>& args) -> Result<ordb::Value> {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSnoozeMillis));
    return args[0];
  };
  if (!db->functions()->RegisterScalar(std::move(snooze)).ok()) return 1;

  const std::string sql = benchutil::ShakespeareQueries().front().hybrid_sql;

  std::printf("== Server round-trip latency (QS1 over loopback, %d ops per "
              "connection) ==\n\n",
              ops);
  benchutil::TablePrinter table(
      {"Connections", "Requests", "p50 ms", "p99 ms", "qps"});
  std::vector<LoadPoint> points;
  {
    auto started = Server::Start(db);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Server> srv = std::move(*started);
    for (int connections : {1, 8, 32}) {
      LoadPoint point = MeasureLoad(*srv, sql, connections, ops);
      points.push_back(point);
      table.AddRow({std::to_string(point.connections),
                    std::to_string(point.requests),
                    benchutil::Fmt(point.p50_ms, 3),
                    benchutil::Fmt(point.p99_ms, 3),
                    benchutil::Fmt(point.qps, 0)});
    }
    srv->Shutdown();
  }
  table.Print();

  auto overload = MeasureOverload(db, 100);
  if (!overload.ok()) {
    std::fprintf(stderr, "overload phase failed: %s\n",
                 overload.status().ToString().c_str());
    return 1;
  }
  const double ratio = overload->rejection_p50_ms > 0
                           ? overload->service_p50_ms /
                                 overload->rejection_p50_ms
                           : 0;
  std::printf(
      "\n== Overload point (2 engine slots + 2 wait slots saturated) ==\n"
      "service p50      %s ms (the slow statement, run solo)\n"
      "rejection p50    %s ms   p99 %s ms   (%zu rejected, %zu slipped in)\n"
      "rejection is %sx faster than service: an overloaded server sheds\n"
      "load at admission speed instead of queuing into collapse.\n",
      benchutil::Fmt(overload->service_p50_ms, 2).c_str(),
      benchutil::Fmt(overload->rejection_p50_ms, 3).c_str(),
      benchutil::Fmt(overload->rejection_p99_ms, 3).c_str(),
      overload->rejections, overload->non_rejections,
      benchutil::Fmt(ratio, 0).c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"bench_server\",\n  \"ops_per_connection\": "
        << ops << ",\n  \"load\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const LoadPoint& p = points[i];
      out << "    {\"connections\": " << p.connections
          << ", \"requests\": " << p.requests << ", \"p50_ms\": " << p.p50_ms
          << ", \"p99_ms\": " << p.p99_ms << ", \"qps\": " << p.qps << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"overload\": {\n    \"service_p50_ms\": "
        << overload->service_p50_ms
        << ",\n    \"rejection_p50_ms\": " << overload->rejection_p50_ms
        << ",\n    \"rejection_p99_ms\": " << overload->rejection_p99_ms
        << ",\n    \"rejections\": " << overload->rejections
        << ",\n    \"non_rejections\": " << overload->non_rejections
        << ",\n    \"service_over_rejection\": " << ratio << "\n  }\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xorator

int main(int argc, char** argv) { return xorator::Run(argc, argv); }
