// xo_server: serve a synthetic Shakespeare corpus over the xorator wire
// protocol (DESIGN.md section 17).
//
//   ./build/examples/xo_server [port] [plays]
//
// Builds a Hybrid-mapped database from `plays` generated plays (default 3),
// starts the thread-per-connection socket server on `port` (default 4715;
// 0 picks an ephemeral port), prints the address, and serves until stdin
// closes or a `quit` line arrives — then drains in flight statements and
// prints the admission counters. Point ./build/examples/xo_client at it.
//
//   ./build/examples/xo_server --smoke
//
// Self-contained smoke mode for CI: starts the server on an ephemeral
// port, drives one client round trip + STATS over loopback, shuts down.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/fixture.h"
#include "xorator.h"

namespace {

using namespace xorator;

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "xo_server: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

Result<benchutil::ExperimentDb> BuildCorpusDb(int plays) {
  datagen::ShakespeareOptions gen;
  gen.plays = plays;
  gen.acts_per_play = 2;
  gen.scenes_per_act = 2;
  gen.speeches_per_scene = 8;
  auto corpus = datagen::ShakespeareGenerator(gen).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  benchutil::ExperimentOptions options;
  options.mapping = benchutil::Mapping::kHybrid;
  return benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                      options);
}

void PrintStats(server::Server* srv) {
  const server::ServerStats s = srv->server_stats();
  std::printf("connections  accepted %llu  rejected %llu  closed %llu\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.connections_rejected),
              static_cast<unsigned long long>(s.connections_closed));
  std::printf("statements   admitted %llu  ok %llu  error %llu\n",
              static_cast<unsigned long long>(s.statements_admitted),
              static_cast<unsigned long long>(s.statements_ok),
              static_cast<unsigned long long>(s.statements_error));
  std::printf("shed         queue %llu  readonly %llu  draining %llu  "
              "disconnect-cancels %llu  malformed %llu\n",
              static_cast<unsigned long long>(s.statements_rejected_queue),
              static_cast<unsigned long long>(s.statements_shed_readonly),
              static_cast<unsigned long long>(s.statements_rejected_draining),
              static_cast<unsigned long long>(s.cancelled_on_disconnect),
              static_cast<unsigned long long>(s.malformed_frames));
}

int Smoke() {
  auto built = BuildCorpusDb(2);
  if (!built.ok()) return Fail(built.status(), "fixture");
  auto started = server::Server::Start(built->db.get());
  if (!started.ok()) return Fail(started.status(), "start");
  std::unique_ptr<server::Server> srv = std::move(*started);

  server::ClientOptions copts;
  copts.port = srv->port();
  server::Client client(std::move(copts));
  auto r = client.Query("SELECT COUNT(*) AS n FROM speech");
  if (!r.ok()) return Fail(r.status(), "query");
  std::printf("smoke: %s rows, speech count %s\n",
              std::to_string(r->rows.size()).c_str(),
              r->rows[0][0].c_str());
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status(), "stats");
  std::printf("smoke: %zu stats rows\n", stats->rows.size());
  srv->Shutdown();
  PrintStats(srv.get());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--smoke") return Smoke();
  const uint16_t port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 4715;
  const int plays = argc > 2 ? std::atoi(argv[2]) : 3;

  std::printf("loading %d generated plays (Hybrid mapping)...\n", plays);
  auto built = BuildCorpusDb(plays);
  if (!built.ok()) return Fail(built.status(), "fixture");

  server::ServerOptions options;
  options.port = port;
  auto started = server::Server::Start(built->db.get(), options);
  if (!started.ok()) return Fail(started.status(), "start");
  std::unique_ptr<server::Server> srv = std::move(*started);
  std::printf(
      "listening on 127.0.0.1:%u\n"
      "try:  ./build/examples/xo_client %u \"SELECT COUNT(*) AS n FROM "
      "speech\"\n"
      "type quit (or close stdin) to drain and exit\n",
      srv->port(), srv->port());

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "stats") PrintStats(srv.get());
  }
  std::printf("draining...\n");
  srv->Shutdown();
  PrintStats(srv.get());
  return 0;
}
