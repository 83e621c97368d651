// End-to-end tests of the network front end (DESIGN.md section 17): the
// thread-per-connection socket server (src/server/server.h), the wire
// protocol, and the retrying client — exercised over real loopback sockets
// against a live Database.
//
// The robustness contract under test:
//   * admission control (connection cap + bounded wait for an engine slot)
//     rejects excess load fast with a retryable kResourceExhausted +
//     retry-after;
//   * deadlines propagate from the frame into the engine's query guard,
//     measured from admission so the slot wait counts;
//   * a client that disconnects mid-query gets its statement cancelled, and
//     a cancel or disconnect that lands while a statement waits for its
//     slot answers it without running;
//   * mutations are shed with the health latch's own status while the
//     engine is read-only, and STATS advertises the degraded state;
//   * Shutdown() drains in-flight statements before closing.
//
// The ServerSoakTest at the bottom is the server leg of the chaos-soak CI
// job: N client threads fire the paper's query mix plus bulk loads, random
// disconnects and malformed frames at a deliberately small server, while
// the engine's health latch flips read-only mid-run. Knobs:
//   XO_SERVER_SOAK_THREADS / XO_SERVER_SOAK_OPS / XO_SERVER_SOAK_SEED.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/database.h"
#include "ordb/health.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"

namespace xorator {
namespace {

using server::CallOptions;
using server::Client;
using server::ClientOptions;
using server::Server;
using server::ServerOptions;
using server::ServerStats;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Polls `pred` until it holds or `timeout_millis` passes.
bool PollUntil(const std::function<bool()>& pred, int64_t timeout_millis) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_millis);
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// A fresh in-memory database with:
///   t(a INTEGER, b VARCHAR)   three known rows;
///   many(a INTEGER)           kManyRows rows, for slow scans;
///   snooze(x)                 UDF: sleeps kSnoozeMillis, returns x — a
///                             `SELECT snooze(a) FROM many` takes roughly
///                             kManyRows * kSnoozeMillis ms and crosses a
///                             guard checkpoint per row, so deadlines and
///                             cancellation land mid-statement.
constexpr int kManyRows = 150;
constexpr int kSnoozeMillis = 4;
const char kSlowSql[] = "SELECT snooze(a) AS s FROM many";

std::unique_ptr<ordb::Database> MakeDb() {
  auto opened = ordb::Database::Open({});
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ordb::Database> db = std::move(*opened);
  EXPECT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'one')").ok());
  EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (2, 'two')").ok());
  EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (3, 'three')").ok());
  EXPECT_TRUE(db->Execute("CREATE TABLE many (a INTEGER)").ok());
  for (int i = 0; i < kManyRows; ++i) {
    EXPECT_TRUE(
        db->Execute("INSERT INTO many VALUES (" + std::to_string(i) + ")")
            .ok());
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
  EXPECT_TRUE(db->functions()->RegisterScalar(std::move(snooze)).ok());
  return db;
}

ClientOptions ClientFor(const Server& srv, int max_retries = 0) {
  ClientOptions options;
  options.port = srv.port();
  options.max_retries = max_retries;
  options.backoff_base_millis = 2;
  options.backoff_max_millis = 50;
  return options;
}

std::optional<std::string> FindRow(const server::StatsPayload& stats,
                                   const std::string& name) {
  for (const auto& [key, value] : stats.rows) {
    if (key == name) return value;
  }
  return std::nullopt;
}

// -- Round trips. -----------------------------------------------------------

TEST(ServerTest, QueryRoundTripMatchesDirect) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  const std::string sql = "SELECT a, b FROM t";
  auto direct = db->Query(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Client client(ClientFor(*srv));
  auto remote = client.Query(sql);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->columns, direct->columns);
  ASSERT_EQ(remote->rows.size(), direct->rows.size());
  for (size_t r = 0; r < direct->rows.size(); ++r) {
    ASSERT_EQ(remote->rows[r].size(), direct->rows[r].size());
    for (size_t c = 0; c < direct->rows[r].size(); ++c) {
      EXPECT_EQ(remote->rows[r][c], direct->rows[r][c].ToString());
    }
  }

  const ServerStats stats = srv->server_stats();
  EXPECT_EQ(stats.statements_admitted, 1u);
  EXPECT_EQ(stats.statements_ok, 1u);
  EXPECT_EQ(stats.statements_error, 0u);
}

TEST(ServerTest, ExecuteAppliesMutationsAndErrorsTravelTheWire) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  Client client(ClientFor(*srv));
  ASSERT_TRUE(client.Execute("INSERT INTO t VALUES (4, 'four')").ok());
  auto count = client.Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0], "4");

  // A statement error comes back as a decoded, non-retryable Status with
  // its message intact — not a dead connection.
  auto bad = client.Query("SELECT a FROM no_such_table");
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().IsRetryable()) << bad.status().ToString();
  EXPECT_FALSE(bad.status().message().empty());

  // The connection survived the error; the next statement works.
  auto again = client.Query("SELECT a FROM t");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

// -- Admission control. -----------------------------------------------------

TEST(ServerTest, ConnectionCapRejectsFastWithRetryableHint) {
  auto db = MakeDb();
  ServerOptions options;
  options.max_connections = 1;
  options.retry_after_millis = 37;
  auto started = Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  Client first(ClientFor(*srv));
  ASSERT_TRUE(first.Query("SELECT a FROM t").ok());

  // The second connection is turned away at the cap with the retryable
  // admission status and the configured hint.
  Client second(ClientFor(*srv, /*max_retries=*/0));
  auto rejected = second.Query("SELECT a FROM t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_TRUE(rejected.status().IsRetryable());
  EXPECT_EQ(rejected.status().retry_after_millis(), 37u);
  EXPECT_GE(srv->server_stats().connections_rejected, 1u);

  // The retry loop rides out the rejection: a third client with retries
  // enabled succeeds once the first connection goes away.
  Client third(ClientFor(*srv, /*max_retries=*/8));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    first.Disconnect();
  });
  auto eventually = third.Query("SELECT a FROM t");
  releaser.join();
  EXPECT_TRUE(eventually.ok()) << eventually.status().ToString();
}

TEST(ServerTest, QueueCapRejectsAndQueueWaitCountsAgainstTheDeadline) {
  auto db = MakeDb();

  // A gate UDF that blocks its statement until the test releases it (the
  // 10 s timeout turns a wedged test into a clean failure).
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  ordb::ScalarFunction fn;
  fn.name = "gate";
  fn.return_type = ordb::TypeId::kInteger;
  fn.arity = 1;
  fn.impl =
      [gate](const std::vector<ordb::Value>& args) -> Result<ordb::Value> {
    std::unique_lock<std::mutex> lock(gate->mu);
    if (!gate->cv.wait_for(lock, std::chrono::seconds(10),
                           [&gate] { return gate->open; })) {
      return Status::Internal("gate timed out");
    }
    return args[0];
  };
  ASSERT_TRUE(db->functions()->RegisterScalar(std::move(fn)).ok());

  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 1;
  options.retry_after_millis = 11;
  auto started = Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // First statement occupies the only worker inside the gate.
  std::thread blocked([&] {
    Client client(ClientFor(*srv));
    auto r = client.Query("SELECT gate(a) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(PollUntil(
      [&] {
        const ServerStats s = srv->server_stats();
        return s.statements_admitted == 1 && s.queue_depth == 0;
      },
      5000))
      << "first statement never reached the worker";

  // Second statement fills the queue (depth 1 = the cap) with a 60 ms
  // deadline that will expire while it waits.
  std::thread queued([&] {
    Client client(ClientFor(*srv));
    CallOptions call;
    call.deadline_millis = 60;
    auto r = client.Query("SELECT a FROM t", call);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
    // The rejection names the queue: the statement died waiting, and the
    // server answered without touching the engine.
    EXPECT_NE(r.status().message().find("admission queue"), std::string::npos)
        << r.status().message();
  });
  ASSERT_TRUE(
      PollUntil([&] { return srv->server_stats().queue_depth == 1; }, 5000))
      << "second statement never queued";

  // Third statement finds the queue full: fast kResourceExhausted with the
  // retry-after hint, no queuing into collapse.
  Client overflow(ClientFor(*srv, /*max_retries=*/0));
  auto rejected = overflow.Query("SELECT a FROM t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_TRUE(rejected.status().IsRetryable());
  EXPECT_EQ(rejected.status().retry_after_millis(), 11u);

  // Hold the gate past the queued statement's deadline, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  blocked.join();
  queued.join();

  const ServerStats stats = srv->server_stats();
  EXPECT_EQ(stats.statements_rejected_queue, 1u);
  EXPECT_EQ(stats.peak_queue_depth, 1u);
  EXPECT_EQ(stats.statements_admitted, 2u);
  EXPECT_EQ(stats.statements_ok + stats.statements_error, 2u);
}

TEST(ServerTest, DeadlinePropagatesIntoTheEngine) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // The slow scan needs ~kManyRows * kSnoozeMillis = 600 ms; a 50 ms frame
  // deadline must stop it at a guard checkpoint long before that.
  Client client(ClientFor(*srv));
  CallOptions call;
  call.deadline_millis = 50;
  const auto before = std::chrono::steady_clock::now();
  auto r = client.Query(kSlowSql, call);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - before)
                           .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, kManyRows * kSnoozeMillis / 2)
      << "deadline did not interrupt the scan";
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
}

// -- Disconnect cancellation. -----------------------------------------------

TEST(ServerTest, DisconnectMidQueryCancelsTheStatement) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // Raw socket: send the slow query, then vanish without reading the
  // response. The connection thread's disconnect probe must fire
  // Database::Cancel instead of burning a worker for nobody.
  {
    auto connected = server::Connect("127.0.0.1", srv->port(),
                                     server::Deadline::After(1000));
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    server::Socket socket = std::move(*connected);
    server::QueryRequest request;
    request.sql = kSlowSql;
    ASSERT_TRUE(
        server::WriteFull(
            socket,
            server::EncodeQueryRequest(server::FrameType::kQuery, request),
            server::Deadline::After(1000))
            .ok());
    ASSERT_TRUE(PollUntil(
        [&] { return srv->server_stats().statements_admitted >= 1; }, 5000));
  }  // socket closes here, mid-query

  EXPECT_TRUE(PollUntil(
      [&] { return srv->server_stats().cancelled_on_disconnect == 1; }, 5000))
      << "disconnect was never noticed";
  // The statement terminates (cancelled counts as an error) and leaves the
  // engine quiescent.
  EXPECT_TRUE(PollUntil(
      [&] {
        const ServerStats s = srv->server_stats();
        return s.statements_ok + s.statements_error == s.statements_admitted;
      },
      10000))
      << "cancelled statement never terminated";
  EXPECT_TRUE(PollUntil(
      [&] { return db->buffer_pool()->PinnedFrameCount() == 0; }, 5000));
}

TEST(ServerTest, CancelReachesAcrossConnections) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  constexpr uint64_t kQueryId = 42;
  std::thread victim([&] {
    Client client(ClientFor(*srv));
    CallOptions call;
    call.query_id = kQueryId;
    auto r = client.Query(kSlowSql, call);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  });

  Client canceller(ClientFor(*srv));
  // Unknown ids answer kNotFound — the canceller can tell "already gone"
  // from "landed".
  Status miss = canceller.Cancel(9999);
  EXPECT_EQ(miss.code(), StatusCode::kNotFound) << miss.ToString();

  // Spin until the victim's statement is registered, then cancel it.
  ASSERT_TRUE(PollUntil(
      [&] {
        Status s = canceller.Cancel(kQueryId);
        return s.ok();
      },
      5000))
      << "cancel never found the statement";
  victim.join();
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
}

TEST(ServerTest, CancelReachesEveryStatementSharingAClientId) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // Client-chosen ids are not unique: two connections may reuse one.
  constexpr uint64_t kSharedId = 7;
  std::thread slow([&] {
    Client client(ClientFor(*srv));
    CallOptions call;
    call.query_id = kSharedId;
    auto r = client.Query(kSlowSql, call);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  });
  ASSERT_TRUE(PollUntil(
      [&] { return srv->server_stats().statements_admitted >= 1; }, 5000));

  // A fast statement under the same id starts and finishes while the slow
  // one is still running; its completion must not hide the slow one.
  Client fast(ClientFor(*srv));
  CallOptions call;
  call.query_id = kSharedId;
  auto quick = fast.Query("SELECT a FROM t", call);
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();

  Status cancelled = fast.Cancel(kSharedId);
  EXPECT_TRUE(cancelled.ok()) << cancelled.ToString();
  slow.join();
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
}

// -- Statements waiting for an engine slot. ---------------------------------

/// A UDF that blocks its statement until Open() and counts its calls (the
/// 10 s timeout turns a wedged test into a clean failure).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int calls = 0;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  int Calls() {
    std::lock_guard<std::mutex> lock(mu);
    return calls;
  }
};

/// Registers `gate(x)` on `db`; kGateSql calls it once per execution.
std::shared_ptr<Gate> RegisterGate(ordb::Database* db) {
  auto gate = std::make_shared<Gate>();
  ordb::ScalarFunction fn;
  fn.name = "gate";
  fn.return_type = ordb::TypeId::kInteger;
  fn.arity = 1;
  fn.impl =
      [gate](const std::vector<ordb::Value>& args) -> Result<ordb::Value> {
    std::unique_lock<std::mutex> lock(gate->mu);
    ++gate->calls;
    if (!gate->cv.wait_for(lock, std::chrono::seconds(10),
                           [&gate] { return gate->open; })) {
      return Status::Internal("gate timed out");
    }
    return args[0];
  };
  EXPECT_TRUE(db->functions()->RegisterScalar(std::move(fn)).ok());
  return gate;
}
const char kGateSql[] = "SELECT gate(a) AS g FROM t WHERE a = 1";

TEST(ServerTest, WaitingStatementIsCancelledWithoutRunning) {
  auto db = MakeDb();
  std::shared_ptr<Gate> gate = RegisterGate(db.get());
  ServerOptions options;
  options.worker_threads = 1;
  auto started = Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // The first gate statement holds the only engine slot.
  std::thread holder([&] {
    Client client(ClientFor(*srv));
    auto r = client.Query(kGateSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(PollUntil([&] { return gate->Calls() == 1; }, 5000))
      << "first statement never entered the engine";

  // Two more wait behind it: one is cancelled by id, the other loses its
  // client. Neither may ever reach the gate.
  constexpr uint64_t kQueryId = 77;
  std::thread by_id([&] {
    Client client(ClientFor(*srv));
    CallOptions call;
    call.query_id = kQueryId;
    auto r = client.Query(kGateSql, call);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  });
  ASSERT_TRUE(
      PollUntil([&] { return srv->server_stats().queue_depth == 1; }, 5000))
      << "the statement to cancel never waited";
  {
    auto connected = server::Connect("127.0.0.1", srv->port(),
                                     server::Deadline::After(1000));
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    server::Socket socket = std::move(*connected);
    server::QueryRequest request;
    request.sql = kGateSql;
    ASSERT_TRUE(
        server::WriteFull(
            socket,
            server::EncodeQueryRequest(server::FrameType::kQuery, request),
            server::Deadline::After(1000))
            .ok());
    ASSERT_TRUE(
        PollUntil([&] { return srv->server_stats().queue_depth == 2; }, 5000))
        << "the statement to abandon never waited";

    Client canceller(ClientFor(*srv));
    Status cancelled = canceller.Cancel(kQueryId);
    EXPECT_TRUE(cancelled.ok()) << cancelled.ToString();
  }  // socket closes here, while its statement waits
  EXPECT_TRUE(PollUntil(
      [&] { return srv->server_stats().cancelled_on_disconnect == 1; }, 5000))
      << "disconnect of a waiting statement was never noticed";

  gate->Open();
  holder.join();
  by_id.join();
  EXPECT_TRUE(PollUntil(
      [&] {
        const ServerStats s = srv->server_stats();
        return s.statements_ok + s.statements_error == s.statements_admitted;
      },
      10000))
      << "a waiting statement never terminated";

  const ServerStats stats = srv->server_stats();
  EXPECT_EQ(stats.statements_admitted, 3u);
  EXPECT_EQ(stats.statements_ok, 1u);
  EXPECT_EQ(stats.statements_error, 2u);
  EXPECT_EQ(stats.cancelled_on_disconnect, 1u);
  EXPECT_EQ(gate->Calls(), 1);
}

TEST(ServerTest, WaitingStatementsRunInAdmissionOrder) {
  auto db = MakeDb();
  std::shared_ptr<Gate> gate = RegisterGate(db.get());
  // note(x) records the order in which statements reach the engine.
  auto order = std::make_shared<std::vector<std::string>>();
  auto order_mu = std::make_shared<std::mutex>();
  ordb::ScalarFunction note;
  note.name = "note";
  note.return_type = ordb::TypeId::kInteger;
  note.arity = 1;
  note.impl = [order, order_mu](const std::vector<ordb::Value>& args)
      -> Result<ordb::Value> {
    std::lock_guard<std::mutex> lock(*order_mu);
    order->push_back(args[0].ToString());
    return args[0];
  };
  ASSERT_TRUE(db->functions()->RegisterScalar(std::move(note)).ok());
  ServerOptions options;
  options.worker_threads = 1;
  auto started = Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  std::vector<std::thread> clients;
  clients.emplace_back([&] {
    Client client(ClientFor(*srv));
    EXPECT_TRUE(client.Query(kGateSql).ok());
  });
  ASSERT_TRUE(PollUntil([&] { return gate->Calls() == 1; }, 5000));
  // Three statements line up behind the gate, one at a time.
  for (int a = 1; a <= 3; ++a) {
    clients.emplace_back([&, a] {
      Client client(ClientFor(*srv));
      auto r = client.Query("SELECT note(a) AS n FROM t WHERE a = " +
                            std::to_string(a));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
    ASSERT_TRUE(PollUntil(
        [&] {
          return srv->server_stats().queue_depth == static_cast<uint64_t>(a);
        },
        5000));
  }
  gate->Open();
  for (std::thread& c : clients) c.join();
  std::lock_guard<std::mutex> lock(*order_mu);
  EXPECT_EQ(*order, (std::vector<std::string>{"1", "2", "3"}));
}

// -- Graceful degradation. --------------------------------------------------

TEST(ServerTest, ReadOnlyEngineShedsWritesWithStateDetailAndHint) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  db->health()->ReportReadOnly("wal device gone");

  // The mutation is shed at admission; the health latch's own status rides
  // the wire — state name, latched detail, retry-after hint — so the
  // remote backoff layer sees exactly what an embedded caller would.
  Client client(ClientFor(*srv, /*max_retries=*/0));
  Status shed = client.Execute("INSERT INTO t VALUES (9, 'nine')");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();
  EXPECT_TRUE(shed.IsRetryable());
  EXPECT_EQ(shed.retry_after_millis(),
            ordb::EngineHealth::kReadOnlyRetryAfterMillis);
  EXPECT_NE(shed.message().find("ReadOnly"), std::string::npos)
      << shed.message();
  EXPECT_NE(shed.message().find("wal device gone"), std::string::npos)
      << shed.message();

  // Reads still serve, and STATS advertises the degraded state alongside
  // the shed counter.
  EXPECT_TRUE(client.Query("SELECT a FROM t").ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(FindRow(*stats, "health").value_or(""), "ReadOnly");
  EXPECT_EQ(FindRow(*stats, "health_detail").value_or(""), "wal device gone");
  EXPECT_EQ(FindRow(*stats, "server_statements_shed_readonly").value_or(""),
            "1");

  // Recovery re-arms writes end to end.
  EXPECT_TRUE(db->health()->Recover());
  EXPECT_TRUE(client.Execute("INSERT INTO t VALUES (9, 'nine')").ok());
}

// A degraded scan over the wire reports what it skipped: the RESULT frame's
// trailing text is the statement report — the guard line (the server runs
// every statement guarded) and the resilience line, no plan tree.
TEST(ServerTest, SkipQuarantinedSelectShipsTheReportNotThePlan) {
  const std::string path = ::testing::TempDir() + "/xorator_server_skip.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ordb::DbOptions options;
  options.path = path;
  ordb::PageId first_page = ordb::kInvalidPageId;
  {
    auto db = ordb::Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 400; ++i) {  // several heap pages
      if (i > 0) insert += ", ";
      insert.append("(").append(std::to_string(i));
      insert.append(", 'payload-payload-payload')");
    }
    ASSERT_TRUE((*db)->Execute(insert).ok());
    first_page = (*db)->catalog()->FindTable("t")->heap->first_page();
    ASSERT_TRUE((*db)->Close().ok());
  }
  {  // Rot the head page's records; its header (and next link) survive.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(first_page) * ordb::kPageSize + 512);
    for (int i = 0; i < 64; ++i) f.put('\xEE');
  }
  auto opened = ordb::Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ordb::Database> db = std::move(*opened);
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  Client client(ClientFor(*srv));
  CallOptions skip;
  skip.skip_quarantined = true;
  auto remote = client.Query("SELECT COUNT(*) AS n FROM t", skip);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const std::string& report = remote->report;
  const size_t newline = report.find('\n');
  ASSERT_NE(newline, std::string::npos) << report;
  EXPECT_EQ(report.rfind("guard: ", 0), 0u) << report;
  const std::string resilience = report.substr(newline + 1);
  EXPECT_EQ(resilience.rfind("resilience: health=Degraded quarantined=1 "
                             "skipped_pages=1 ",
                             0),
            0u)
      << report;
  EXPECT_EQ(resilience.find('\n'), std::string::npos) << report;
  EXPECT_EQ(report.find("SeqScan"), std::string::npos) << report;

  srv->Shutdown();
  db->Kill();  // checkpointing over a poisoned page helps nobody
  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// -- Hostile bytes. ---------------------------------------------------------

TEST(ServerTest, MalformedFramesGetCleanErrorsAndAreCounted) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // Garbage bytes: the server answers one kParseError frame, then closes.
  {
    auto connected = server::Connect("127.0.0.1", srv->port(),
                                     server::Deadline::After(1000));
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    server::Socket socket = std::move(*connected);
    ASSERT_TRUE(server::WriteFull(socket, "GARBAGEGARBAGE",
                                  server::Deadline::After(1000))
                    .ok());
    std::string header_bytes;
    ASSERT_TRUE(server::ReadFull(socket, &header_bytes,
                                 server::kFrameHeaderBytes,
                                 server::Deadline::After(2000))
                    .ok());
    auto header = server::DecodeFrameHeader(header_bytes);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    ASSERT_EQ(header->type, server::FrameType::kError);
    std::string payload;
    ASSERT_TRUE(server::ReadFull(socket, &payload, header->payload_bytes,
                                 server::Deadline::After(2000))
                    .ok());
    auto error = server::DecodeError(payload);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    const Status status = server::StatusFromError(*error);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  }

  // A header that promises a payload and never delivers it: counted as
  // malformed once the truncation surfaces.
  {
    auto connected = server::Connect("127.0.0.1", srv->port(),
                                     server::Deadline::After(1000));
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    server::Socket socket = std::move(*connected);
    server::CancelRequest cancel;
    cancel.query_id = 1;
    std::string frame = server::EncodeCancelRequest(cancel);
    frame.resize(server::kFrameHeaderBytes + 2);  // truncate the payload
    ASSERT_TRUE(
        server::WriteFull(socket, frame, server::Deadline::After(1000)).ok());
  }  // close mid-frame

  EXPECT_TRUE(PollUntil(
      [&] { return srv->server_stats().malformed_frames >= 2; }, 5000))
      << "malformed frames not counted: "
      << srv->server_stats().malformed_frames;

  // The server is unharmed: a well-formed client still gets answers.
  Client client(ClientFor(*srv));
  EXPECT_TRUE(client.Query("SELECT a FROM t").ok());
}

// An integer literal past int64 once threw out of the SQL lexer and took the
// whole server process down. It is a parse error like any other: one ERROR
// frame, and the same connection serves the next statement.
TEST(ServerTest, OverflowingIntegerLiteralIsAnErrorFrameNotACrash) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  auto connected = server::Connect("127.0.0.1", srv->port(),
                                   server::Deadline::After(1000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  server::Socket socket = std::move(*connected);
  auto round_trip = [&](const std::string& sql, std::string* payload) {
    server::QueryRequest request;
    request.sql = sql;
    EXPECT_TRUE(server::WriteFull(
                    socket,
                    server::EncodeQueryRequest(server::FrameType::kQuery,
                                               request),
                    server::Deadline::After(1000))
                    .ok());
    std::string header_bytes;
    EXPECT_TRUE(server::ReadFull(socket, &header_bytes,
                                 server::kFrameHeaderBytes,
                                 server::Deadline::After(5000))
                    .ok());
    auto header = server::DecodeFrameHeader(header_bytes);
    EXPECT_TRUE(header.ok()) << header.status().ToString();
    if (!header.ok()) return server::FrameType::kError;
    EXPECT_TRUE(server::ReadFull(socket, payload, header->payload_bytes,
                                 server::Deadline::After(5000))
                    .ok());
    return header->type;
  };

  std::string payload;
  ASSERT_EQ(round_trip("SELECT a FROM t WHERE a = 99999999999999999999999",
                       &payload),
            server::FrameType::kError);
  auto error = server::DecodeError(payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(server::StatusFromError(*error).code(), StatusCode::kParseError);

  payload.clear();
  EXPECT_EQ(round_trip("SELECT a FROM t WHERE a = 2", &payload),
            server::FrameType::kResult);
  auto result = server::DecodeResult(payload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], "2");
}

// -- Hostile-peer client behavior. ------------------------------------------

/// A minimal hostile peer for exercising the client's failure handling:
/// accepts one connection at a time, reads one request frame, then writes
/// `reply` (possibly nothing) and closes — so the client always sees the
/// request delivered and the response lost or malformed.
class FakePeer {
 public:
  explicit FakePeer(std::string reply = "") : reply_(std::move(reply)) {
    auto listener = server::Listen(0, 8);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(*listener);
    auto port = server::BoundPort(listener_);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
    thread_ = std::thread([this] { Loop(); });
  }
  ~FakePeer() {
    stop_.store(true);
    thread_.join();
  }
  uint16_t port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto conn = server::Accept(listener_, server::Deadline::After(50));
      if (!conn.ok()) {
        conn.status().IgnoreError();
        continue;
      }
      ++accepted_;
      server::Socket socket = std::move(*conn);
      std::string header_bytes;
      Status read = server::ReadFull(socket, &header_bytes,
                                     server::kFrameHeaderBytes,
                                     server::Deadline::After(2000));
      if (read.ok()) {
        auto header = server::DecodeFrameHeader(header_bytes);
        if (header.ok()) {
          std::string payload;
          XO_DISCARD_STATUS(
              server::ReadFull(socket, &payload, header->payload_bytes,
                               server::Deadline::After(2000)),
              "the peer closes the connection either way");
        } else {
          header.status().IgnoreError();
        }
      }
      if (!reply_.empty()) {
        XO_DISCARD_STATUS(
            server::WriteFull(socket, reply_, server::Deadline::After(2000)),
            "test peer; the client-side outcome is what is asserted");
      }
    }  // the socket closes here, mid-conversation
  }

  const std::string reply_;
  server::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepted_{0};
};

TEST(ServerTest, ExecuteIsNotRetriedAfterDeliveryUnlessIdempotent) {
  FakePeer peer;  // reads the request, never answers

  ClientOptions options;
  options.port = peer.port();
  options.max_retries = 2;
  options.backoff_base_millis = 1;
  options.backoff_max_millis = 4;

  {
    // Default EXECUTE: the request was delivered and the response lost —
    // the statement may already have executed, so the client must not
    // blindly re-send the mutation. One connection = one attempt.
    Client client(options);
    Status status = client.Execute("INSERT INTO t VALUES (9, 'nine')");
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_NE(status.message().find("may have executed"), std::string::npos)
        << status.message();
    EXPECT_EQ(peer.accepted(), 1) << "non-idempotent EXECUTE was re-sent";
  }
  {
    // Opting in restores the retry loop; every attempt reconnects.
    const int before = peer.accepted();
    Client client(options);
    CallOptions call;
    call.idempotent = true;
    Status status = client.Execute("INSERT INTO t VALUES (9, 'nine')", call);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_EQ(peer.accepted() - before, 1 + options.max_retries);
  }
  {
    // Query is idempotent by nature and keeps the retry loop.
    const int before = peer.accepted();
    Client client(options);
    auto result = client.Query("SELECT a FROM t");
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(peer.accepted() - before, 1 + options.max_retries);
  }
}

TEST(ServerTest, ClientDropsItsConnectionOnAGarbageResponseHeader) {
  // The peer answers with bytes that fail header decode: the client must
  // drop the desynced connection (like every other failure path) so the
  // next call reconnects instead of misparsing the leftover stream.
  FakePeer peer(std::string(server::kFrameHeaderBytes, 'Z'));

  ClientOptions options;
  options.port = peer.port();
  options.max_retries = 2;
  Client client(options);
  auto result = client.Query("SELECT a FROM t");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError)
      << result.status().ToString();
  EXPECT_FALSE(client.connected());
  // Parse errors are not retryable: exactly one attempt was made.
  EXPECT_EQ(peer.accepted(), 1);
}

// -- Response frames always fit the payload cap. ----------------------------

TEST(ServerProtocolTest, OversizeErrorMessageIsTruncatedToAFrameableFrame) {
  server::ErrorPayload error;
  error.code = static_cast<uint8_t>(StatusCode::kInternal);
  error.retry_after_millis = 7;
  error.message.assign(server::kMaxPayloadBytes + 1024, 'x');
  const std::string frame = server::EncodeError(error);
  auto header = server::DecodeFrameHeader(
      std::string_view(frame).substr(0, server::kFrameHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, server::FrameType::kError);
  EXPECT_LE(header->payload_bytes, server::kMaxPayloadBytes);
  auto decoded = server::DecodeError(
      std::string_view(frame).substr(server::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, error.code);
  EXPECT_EQ(decoded->retry_after_millis, 7u);
  EXPECT_LT(decoded->message.size(), error.message.size());
  EXPECT_GT(decoded->message.size(), 0u);
}

TEST(ServerProtocolTest, OversizeStatsDropTailRowsButStayFrameable) {
  server::StatsPayload stats;
  const std::string big(1u << 20, 'v');
  for (int i = 0; i < 8; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    stats.rows.emplace_back(std::move(key), big);
  }
  const std::string frame = server::EncodeStats(stats);
  auto header = server::DecodeFrameHeader(
      std::string_view(frame).substr(0, server::kFrameHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, server::FrameType::kStatsResult);
  EXPECT_LE(header->payload_bytes, server::kMaxPayloadBytes);
  auto decoded = server::DecodeStats(
      std::string_view(frame).substr(server::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The head rows survive in order; the tail was dropped, not mangled.
  ASSERT_LT(decoded->rows.size(), stats.rows.size());
  ASSERT_GT(decoded->rows.size(), 0u);
  for (size_t i = 0; i < decoded->rows.size(); ++i) {
    EXPECT_EQ(decoded->rows[i].first, stats.rows[i].first);
    EXPECT_EQ(decoded->rows[i].second, stats.rows[i].second);
  }
}

// -- Shutdown. --------------------------------------------------------------

TEST(ServerTest, StartFailsCleanlyWhenThePortIsTaken) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // Binding the same fixed port must surface the listen error as a Result.
  // Destroying the half-started server on that path runs ~Server →
  // Shutdown() before any thread was spawned; joining the unstarted
  // acceptor would std::terminate the process.
  ServerOptions taken;
  taken.port = srv->port();
  auto second = Server::Start(db.get(), taken);
  EXPECT_FALSE(second.ok());

  // The winner is unaffected.
  Client client(ClientFor(*srv));
  EXPECT_TRUE(client.Query("SELECT a FROM t").ok());
}

TEST(ServerTest, ShutdownDrainsInFlightStatements) {
  auto db = MakeDb();
  auto started = Server::Start(db.get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // A statement admitted before Shutdown must complete and deliver its
  // response through the drain window.
  std::thread in_flight([&] {
    Client client(ClientFor(*srv));
    auto r = client.Query(kSlowSql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kManyRows));
  });
  ASSERT_TRUE(PollUntil(
      [&] { return srv->server_stats().statements_admitted >= 1; }, 5000));

  srv->Shutdown();
  in_flight.join();

  // Idempotent, and the counters remain readable after the fact.
  srv->Shutdown();
  const ServerStats stats = srv->server_stats();
  EXPECT_EQ(stats.statements_ok, 1u);
  EXPECT_EQ(stats.active_connections, 0u);

  // The listener is gone: new connections fail instead of hanging.
  Client late(ClientFor(*srv, /*max_retries=*/0));
  EXPECT_FALSE(late.Query("SELECT a FROM t").ok());
}

TEST(ServerTest, ShutdownHardTimeoutAnswersRunningAndWaitingStatements) {
  auto db = MakeDb();
  ServerOptions options;
  options.worker_threads = 1;
  options.drain_timeout_millis = 50;
  auto started = Server::Start(db.get(), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  // The slow scan holds the only engine slot far past the drain window and
  // a second statement waits behind it: the hard timeout must answer both.
  auto expect_cancelled = [&](const char* sql) {
    Client client(ClientFor(*srv));
    auto r = client.Query(sql);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << sql << ": " << r.status().ToString();
  };
  std::thread running([&] { expect_cancelled(kSlowSql); });
  ASSERT_TRUE(PollUntil(
      [&] {
        const ServerStats s = srv->server_stats();
        return s.statements_admitted == 1 && s.queue_depth == 0;
      },
      5000));
  std::thread waiting([&] { expect_cancelled("SELECT a FROM t"); });
  ASSERT_TRUE(
      PollUntil([&] { return srv->server_stats().queue_depth == 1; }, 5000));

  srv->Shutdown();
  running.join();
  waiting.join();

  const ServerStats stats = srv->server_stats();
  EXPECT_EQ(stats.statements_ok, 0u);
  EXPECT_EQ(stats.statements_error, 2u);
  EXPECT_EQ(stats.active_connections, 0u);
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
}

// -- The server chaos soak (the chaos-soak CI job's server leg). ------------

class ServerSoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ShakespeareOptions opts;
    opts.plays = 2;
    opts.acts_per_play = 2;
    opts.scenes_per_act = 2;
    opts.speeches_per_scene = 5;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::ShakespeareGenerator(opts).GenerateCorpus());
    std::vector<const xml::Node*> docs;
    for (const auto& d : *corpus_) docs.push_back(d.get());
    benchutil::ExperimentOptions options;
    options.mapping = benchutil::Mapping::kHybrid;
    auto built =
        benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    db_ = new benchutil::ExperimentDb(std::move(*built));
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static benchutil::ExperimentDb* db_;
};

std::vector<std::unique_ptr<xml::Node>>* ServerSoakTest::corpus_ = nullptr;
benchutil::ExperimentDb* ServerSoakTest::db_ = nullptr;

/// Failure codes a soak client may legitimately see: admission rejection,
/// transport/readonly kUnavailable, a deadline it set itself, its own (or
/// shutdown's) cancellation.
bool IsSoakCode(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

TEST_F(ServerSoakTest, HostileMixedLoadKeepsEveryInvariant) {
  const uint64_t threads = EnvOr("XO_SERVER_SOAK_THREADS", 6);
  const uint64_t ops = EnvOr("XO_SERVER_SOAK_OPS", 40);
  const uint64_t seed = EnvOr("XO_SERVER_SOAK_SEED", 20260808);
  SCOPED_TRACE("replay: XO_SERVER_SOAK_SEED=" + std::to_string(seed) +
               " XO_SERVER_SOAK_THREADS=" + std::to_string(threads) +
               " XO_SERVER_SOAK_OPS=" + std::to_string(ops));

  ordb::Database* db = db_->db.get();
  ASSERT_TRUE(
      db->Execute("CREATE TABLE soak_scratch (a INTEGER, b VARCHAR)").ok());

  // Deliberately small caps so the soak actually exercises the rejection
  // paths: more client threads than workers, a shallow queue.
  ServerOptions options;
  options.max_connections = threads + 2;
  options.worker_threads = 3;
  options.max_queue_depth = 4;
  options.retry_after_millis = 5;
  auto started = Server::Start(db, options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> srv = std::move(*started);

  std::vector<std::string> mix;
  for (const auto& q : benchutil::ShakespeareQueries()) {
    mix.push_back(q.hybrid_sql);
  }
  ASSERT_FALSE(mix.empty());

  std::atomic<int> unexpected{0};
  std::mutex first_mu;
  std::string first_unexpected;
  auto flag_unexpected = [&](const Status& status, const char* what) {
    unexpected.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_unexpected.empty()) {
      first_unexpected = std::string(what) + ": " + status.ToString();
    }
  };

  // Health states observed over the wire. With no fault injection the
  // engine may only ever be Healthy or (while the flipper holds the latch)
  // ReadOnly — Degraded/Failed appearing here means the server load itself
  // damaged the engine.
  std::mutex seen_mu;
  std::set<std::string> seen_health;

  std::atomic<bool> stop_aux{false};

  // The health flipper: latch the engine read-only mid-soak, hold it, then
  // recover — mutations fired into the window must come back as the shed
  // kUnavailable, and the soak must end writable.
  std::thread flipper([&] {
    for (int cycle = 0; cycle < 3 && !stop_aux.load(); ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      db->health()->ReportReadOnly("soak flip " + std::to_string(cycle));
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      EXPECT_TRUE(db->health()->Recover());
    }
  });

  // The monitor: admission bounds must hold at every instant, not just at
  // the end.
  std::thread monitor([&] {
    while (!stop_aux.load(std::memory_order_relaxed)) {
      const ServerStats s = srv->server_stats();
      EXPECT_LE(s.queue_depth, options.max_queue_depth);
      EXPECT_LE(s.active_connections, options.max_connections);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (uint64_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(seed + t);
      ClientOptions copts = ClientFor(*srv, /*max_retries=*/1);
      copts.rng_seed = seed + t;
      Client client(std::move(copts));
      for (uint64_t op = 0; op < ops; ++op) {
        const uint64_t kind = rng() % 10;
        if (kind < 5) {
          // The paper's query mix, sometimes under a tight deadline.
          CallOptions call;
          if (rng() % 4 == 0) call.deadline_millis = 1 + rng() % 30;
          auto r = client.Query(mix[rng() % mix.size()], call);
          if (!r.ok() && !IsSoakCode(r.status().code())) {
            flag_unexpected(r.status(), "query");
          }
        } else if (kind < 7) {
          // Bulk-load shaped writes (shed cleanly in read-only windows).
          Status s = client.Execute(
              "INSERT INTO soak_scratch VALUES (" + std::to_string(op) +
              ", 'thread " + std::to_string(t) + "')");
          if (!s.ok() && !IsSoakCode(s.code())) {
            flag_unexpected(s, "insert");
          }
        } else if (kind == 7) {
          auto stats = client.Stats();
          if (!stats.ok()) {
            if (!IsSoakCode(stats.status().code())) {
              flag_unexpected(stats.status(), "stats");
            }
          } else {
            std::lock_guard<std::mutex> lock(seen_mu);
            seen_health.insert(FindRow(*stats, "health").value_or("missing"));
          }
        } else if (kind == 8) {
          // Vanish mid-conversation; the next op reconnects.
          client.Disconnect();
        } else {
          // A hostile peer: garbage bytes, then gone.
          auto connected = server::Connect("127.0.0.1", srv->port(),
                                           server::Deadline::After(500));
          if (connected.ok()) {
            XO_DISCARD_STATUS(
                server::WriteFull(*connected, "\xff\xff junk frame",
                                  server::Deadline::After(500)),
                "hostile peer does not care");
          } else {
            // Accept-queue pressure may turn the connect away; that is the
            // admission control working.
            connected.status().IgnoreError();
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  stop_aux.store(true);
  flipper.join();
  monitor.join();

  EXPECT_EQ(unexpected.load(), 0) << first_unexpected;

  // Every admitted statement terminates: the ok/error counters catch up to
  // admissions once the workers finish the tail.
  EXPECT_TRUE(PollUntil(
      [&] {
        const ServerStats s = srv->server_stats();
        return s.statements_ok + s.statements_error == s.statements_admitted;
      },
      10000))
      << "admitted statements leaked";

  const ServerStats stats = srv->server_stats();
  EXPECT_GT(stats.statements_admitted, 0u);
  EXPECT_LE(stats.peak_queue_depth, options.max_queue_depth);

  // Health monotonicity: only the states the flipper itself induced.
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    for (const std::string& state : seen_health) {
      EXPECT_TRUE(state == "Healthy" || state == "ReadOnly")
          << "unexpected health state over the wire: " << state;
    }
  }
  EXPECT_EQ(db->health()->state(), ordb::HealthState::kHealthy);

  // Quiescence: no leaked pins, and a clean shutdown on a soaked server.
  EXPECT_TRUE(PollUntil(
      [&] { return db->buffer_pool()->PinnedFrameCount() == 0; }, 5000));
  srv->Shutdown();
  EXPECT_EQ(srv->server_stats().active_connections, 0u);
  EXPECT_TRUE(db->Query("SELECT COUNT(*) AS n FROM soak_scratch").ok());
}

}  // namespace
}  // namespace xorator
