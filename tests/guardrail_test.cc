#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/varint.h"
#include "ordb/database.h"
#include "ordb/exec_context.h"
#include "ordb/query_guard.h"
#include "xadt/functions.h"
#include "xadt/xadt.h"
#include "xml/parser.h"

namespace xorator {
namespace {

using ordb::Database;
using ordb::ExecContext;
using ordb::QueryGuard;
using ordb::QueryOptions;
using ordb::ScopedExecContext;
using ordb::TrackedArena;
using ordb::Tuple;
using ordb::Value;

/// Query guardrails (DESIGN.md section 12): deadlines, cooperative
/// cancellation and memory budgets must stop a statement with the right
/// error code, release every pin, and leave the database usable.

// ---------------------------------------------------------------------------
// QueryGuard unit tests.

TEST(QueryGuardTest, UnlimitedGuardAlwaysPasses) {
  QueryGuard guard(0, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(guard.CheckPoint().ok());
  }
  EXPECT_EQ(guard.Stats().checkpoints, 1000u);
  EXPECT_EQ(guard.Stats().stop_code, StatusCode::kOk);
}

TEST(QueryGuardTest, CancelLatchesAcrossCheckpoints) {
  QueryGuard guard(0, 0);
  ASSERT_TRUE(guard.CheckPoint().ok());
  EXPECT_FALSE(guard.cancel_requested());
  guard.Cancel();
  EXPECT_TRUE(guard.cancel_requested());
  for (int i = 0; i < 3; ++i) {
    Status s = guard.CheckPoint();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(guard.Stats().stop_code, StatusCode::kCancelled);
}

TEST(QueryGuardTest, DeadlineTrips) {
  QueryGuard guard(5, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The clock is strided (checked once per kClockStride calls), so poll
  // more than one stride's worth before expecting the trip.
  Status last = Status::OK();
  for (int i = 0; i < 100 && last.ok(); ++i) last = guard.CheckPoint();
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kDeadlineExceeded);
  // Latched: later checkpoints keep reporting the deadline.
  EXPECT_EQ(guard.CheckPoint().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryGuardTest, BudgetTripsOnChargeAndLatches) {
  QueryGuard guard(0, 100);
  ASSERT_TRUE(guard.Charge(60).ok());
  Status s = guard.Charge(60);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // The trip is latched even after the memory is returned: the statement
  // is already unwinding and must not resurrect itself.
  guard.Uncharge(120);
  EXPECT_EQ(guard.CheckPoint().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.Stats().peak_tracked_bytes, 120u);
}

TEST(QueryGuardTest, FirstTripWins) {
  QueryGuard guard(0, 100);
  guard.Cancel();
  ASSERT_EQ(guard.CheckPoint().code(), StatusCode::kCancelled);
  // An over-budget charge after the cancel keeps reporting the cancel.
  EXPECT_EQ(guard.Charge(1000).code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.Stats().stop_code, StatusCode::kCancelled);
}

TEST(QueryGuardTest, StatsLineAndStopCodes) {
  QueryGuard guard(0, 0);
  ASSERT_TRUE(guard.CheckPoint().ok());
  std::string line = guard.Stats().ToString();
  EXPECT_NE(line.find("guard:"), std::string::npos) << line;
  EXPECT_NE(line.find("checkpoints="), std::string::npos) << line;

  EXPECT_TRUE(QueryGuard::IsStopCode(StatusCode::kCancelled));
  EXPECT_TRUE(QueryGuard::IsStopCode(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(QueryGuard::IsStopCode(StatusCode::kResourceExhausted));
  EXPECT_FALSE(QueryGuard::IsStopCode(StatusCode::kOk));
  EXPECT_FALSE(QueryGuard::IsStopCode(StatusCode::kParseError));
}

TEST(TrackedArenaTest, ReleasesOnDestruction) {
  QueryGuard guard(0, 0);
  {
    TrackedArena arena(&guard);
    ASSERT_TRUE(arena.Charge(500).ok());
    EXPECT_EQ(arena.charged(), 500u);
    EXPECT_EQ(guard.Stats().tracked_bytes, 500u);
  }
  EXPECT_EQ(guard.Stats().tracked_bytes, 0u);
  EXPECT_EQ(guard.Stats().peak_tracked_bytes, 500u);
}

TEST(TrackedArenaTest, RebindReleasesTheOldCharge) {
  QueryGuard a(0, 0);
  QueryGuard b(0, 0);
  TrackedArena arena(&a);
  ASSERT_TRUE(arena.Charge(100).ok());
  arena.Rebind(&b);
  EXPECT_EQ(a.Stats().tracked_bytes, 0u);
  ASSERT_TRUE(arena.Charge(50).ok());
  EXPECT_EQ(b.Stats().tracked_bytes, 50u);
}

TEST(TrackedArenaTest, NullGuardIsANoop) {
  TrackedArena arena;
  ASSERT_TRUE(arena.Charge(1u << 30).ok());
  EXPECT_EQ(arena.charged(), 0u);
  arena.Release();
}

TEST(ScopedExecContextTest, NestsAndRestores) {
  EXPECT_EQ(ExecContext::Current(), nullptr);
  EXPECT_EQ(ExecContext::CurrentQueryGuard(), nullptr);
  QueryGuard guard(0, 0);
  ExecContext outer;
  outer.guard = &guard;
  ExecContext inner;
  {
    ScopedExecContext bind_outer(outer);
    EXPECT_EQ(ExecContext::Current(), &outer);
    EXPECT_EQ(ExecContext::CurrentQueryGuard(), &guard);
    {
      ScopedExecContext bind_inner(inner);
      EXPECT_EQ(ExecContext::Current(), &inner);
      EXPECT_EQ(ExecContext::CurrentQueryGuard(), nullptr);
    }
    EXPECT_EQ(ExecContext::Current(), &outer);
  }
  EXPECT_EQ(ExecContext::Current(), nullptr);
}

/// Binds a statement context carrying `guard` to the thread for its scope,
/// as Database does around a statement.
struct GuardedStatement {
  explicit GuardedStatement(QueryGuard* guard) : bind(ctx) {
    ctx.guard = guard;
  }
  ExecContext ctx;
  ScopedExecContext bind;
};

// ---------------------------------------------------------------------------
// XADT decoding under a thread-bound guard: raw and compressed values share
// one scanner-driven decoder, so both are budgeted and cancellable.

std::string EncodedLines(bool compressed) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "<LINE>line " + std::to_string(i) + " of the speech</LINE>";
  }
  auto frag = xml::ParseFragment(text);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  return xadt::Encode(roots, compressed);
}

class XadtDecodeGuardTest : public ::testing::TestWithParam<bool> {};

TEST_P(XadtDecodeGuardTest, UnguardedDecodeSucceeds) {
  auto decoded = xadt::Decode(EncodedLines(GetParam()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->children().size(), 2000u);
}

TEST_P(XadtDecodeGuardTest, BudgetStopsDecode) {
  std::string value = EncodedLines(GetParam());
  QueryGuard guard(0, 4096);
  GuardedStatement bind(&guard);
  auto decoded = xadt::Decode(value);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(XadtDecodeGuardTest, CancelStopsDecode) {
  std::string value = EncodedLines(GetParam());
  QueryGuard guard(0, 0);
  guard.Cancel();
  GuardedStatement bind(&guard);
  auto decoded = xadt::Decode(value);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCancelled);
}

TEST_P(XadtDecodeGuardTest, BudgetStopsUnnestWithFragLiveOrDead) {
  // The `unnest` UDF charges each element once, for its text and, when
  // the plan reads it, its fragment; either way 2000 lines overrun 4 KB.
  auto registry = ordb::FunctionRegistry::WithBuiltins();
  ASSERT_TRUE(xadt::RegisterXadtFunctions(&registry).ok());
  const ordb::TableFunction* unnest = registry.FindTable("unnest");
  ASSERT_NE(unnest, nullptr);
  const std::vector<Value> args = {Value::Xadt(EncodedLines(GetParam())),
                                   Value::Varchar("LINE")};
  for (const ordb::ColumnMask& live :
       {ordb::ColumnMask{true, true}, ordb::ColumnMask{true, false}}) {
    auto unguarded = ordb::InvokeTable(*unnest, args, live);
    ASSERT_TRUE(unguarded.ok()) << unguarded.status().ToString();
    ASSERT_EQ(unguarded->size(), 2000u);
    EXPECT_EQ((*unguarded)[0][1].is_null(), !live[1]);
    QueryGuard guard(0, 4096);
    GuardedStatement bind(&guard);
    auto rows = ordb::InvokeTable(*unnest, args, live);
    ASSERT_FALSE(rows.ok()) << "frag live: " << live[1];
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
        << rows.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, XadtDecodeGuardTest,
                         ::testing::Values(false, true));

TEST(XadtDecodeGuardTest, BudgetBoundsAttributeExpansion) {
  // A hand-built compressed value whose one start token lists 10,000
  // attributes that all name the same 4 KB dictionary entry: ~25 KB of
  // bytes that would expand to ~40 MB. Every attribute is charged before it
  // is stored, so the charges stop near the 1 MB budget.
  const std::string long_name(4096, 'n');
  std::string value(1, 'C');
  PutVarint(&value, 2);
  PutVarint(&value, 1);
  value += "a";
  PutVarint(&value, long_name.size());
  value += long_name;
  value.push_back('\x01');
  PutVarint(&value, 0);
  PutVarint(&value, 10000);
  for (int i = 0; i < 10000; ++i) {
    PutVarint(&value, 1);
    PutVarint(&value, 0);
  }
  value.push_back('\x02');
  QueryGuard guard(0, 1 << 20);
  GuardedStatement bind(&guard);
  auto decoded = xadt::Decode(value);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(guard.Stats().peak_tracked_bytes, 2u << 20);
}

// ---------------------------------------------------------------------------
// SQL-level tests: guardrails threaded through the whole engine.

std::unique_ptr<Database> OpenDb() {
  auto db = Database::Open({});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(xadt::RegisterXadtFunctions(db.value()->functions()).ok());
  return std::move(*db);
}

/// Seeds `rows` integer rows into table t(a INTEGER, b VARCHAR).
void SeedIntTable(Database* db, int rows) {
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  std::vector<Tuple> batch;
  for (int i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(i), Value::Varchar("row" + std::to_string(i))});
  }
  ASSERT_TRUE(db->BulkInsert("t", batch).ok());
}

/// After a guarded abort the engine must be quiescent (no leaked pins) and
/// fully usable.
void ExpectUsable(Database* db) {
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
  auto again = db->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows.size(), 1u);
}

TEST(GuardrailSqlTest, DeadlineExpiryMidScanReturnsPromptly) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 300);
  // A 300^3 cross product (no equality predicate, so the planner cannot
  // pick a hash join) grinds through ~27M nested-loop rows — far longer
  // than 50 ms unguarded; the deadline must cut it short.
  QueryGuard guard(50, 0);
  QueryOptions options;
  options.guard = &guard;
  Timer timer;
  auto r = db->Query("SELECT COUNT(*) AS n FROM t t1, t t2, t t3", options);
  double elapsed = timer.ElapsedMillis();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // "Promptly": well before the unguarded runtime. Generous bound to stay
  // robust on loaded CI machines.
  EXPECT_LT(elapsed, 5000.0);
  ExpectUsable(db.get());
}

TEST(GuardrailSqlTest, MemoryBudgetTripsOnJoinMaterialization) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 2000);
  // The nested-loop join materializes its right side into a tracked arena;
  // a 16 KB budget cannot hold 2000 rows.
  QueryGuard guard(0, 16 * 1024);
  QueryOptions options;
  options.guard = &guard;
  auto r = db->Query("SELECT COUNT(*) AS n FROM t t1, t t2 WHERE t1.a = t2.a",
                     options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  ExpectUsable(db.get());
}

TEST(GuardrailSqlTest, MemoryBudgetTripsOnLargeUnnest) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INTEGER, x XADT)").ok());
  std::string doc = "<r>";
  for (int i = 0; i < 5000; ++i) {
    doc += "<a>fragment number " + std::to_string(i) + "</a>";
  }
  doc += "</r>";
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, '" + doc + "')").ok());

  // Unguarded, the unnest expands every <a> child.
  auto full = db->Query("SELECT u.out FROM t, table(unnest(x, 'a')) u");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->rows.size(), 5000u);

  // With a budget far below the expansion size, the XADT layer's charges
  // trip the guard mid-expansion.
  QueryGuard tight_guard(0, 8 * 1024);
  QueryOptions tight;
  tight.guard = &tight_guard;
  auto r = db->Query("SELECT u.out FROM t, table(unnest(x, 'a')) u", tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
  // The same statement with a roomy budget still works.
  QueryGuard roomy_guard(0, 64u << 20);
  QueryOptions roomy;
  roomy.guard = &roomy_guard;
  auto ok = db->Query("SELECT u.out FROM t, table(unnest(x, 'a')) u", roomy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 5000u);
}

TEST(GuardrailSqlTest, GuardCancelledBeforeQueryStopsIt) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 300);
  // The caller owns the guard, so a cancel may land before the statement
  // even starts; the statement stops at its first checkpoint.
  QueryGuard guard(0, 0);
  guard.Cancel();
  QueryOptions options;
  options.guard = &guard;
  auto r = db->Query("SELECT COUNT(*) AS n FROM t t1, t t2, t t3", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
  ExpectUsable(db.get());
}

TEST(GuardrailSqlTest, CancellingOneGuardLeavesAnotherStatementRunning) {
  auto db = OpenDb();
  constexpr int kRows = 120;
  SeedIntTable(db.get(), kRows);
  // Two readers run the same cross product in parallel, each under its own
  // guard. Cancelling one must stop exactly that one: the other counts to
  // the end.
  const std::string sql = "SELECT COUNT(*) AS n FROM t t1, t t2, t t3";
  QueryGuard cancelled_guard(0, 0);
  QueryGuard running_guard(0, 0);
  std::optional<Result<ordb::QueryResult>> cancelled;
  std::optional<Result<ordb::QueryResult>> running;
  std::thread cancelled_reader([&] {
    QueryOptions options;
    options.guard = &cancelled_guard;
    cancelled.emplace(db->Query(sql, options));
  });
  std::thread running_reader([&] {
    QueryOptions options;
    options.guard = &running_guard;
    running.emplace(db->Query(sql, options));
  });
  // Cancel once both statements run (both have polled their guards).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((cancelled_guard.Stats().checkpoints == 0 ||
          running_guard.Stats().checkpoints == 0) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  cancelled_guard.Cancel();
  cancelled_reader.join();
  running_reader.join();

  ASSERT_FALSE(cancelled->ok());
  EXPECT_EQ(cancelled->status().code(), StatusCode::kCancelled)
      << cancelled->status().ToString();
  ASSERT_TRUE(running->ok()) << running->status().ToString();
  EXPECT_EQ((*running)->rows[0][0].AsInt(),
            static_cast<int64_t>(kRows) * kRows * kRows);
  EXPECT_EQ(running_guard.Stats().stop_code, StatusCode::kOk);
  ExpectUsable(db.get());
}

TEST(GuardrailSqlTest, GuardStatsReportedInExplain) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 10);
  QueryGuard guard(10000, 0);
  QueryOptions options;
  options.guard = &guard;
  auto r = db->Query("SELECT a FROM t", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->report.guard.has_value());
  EXPECT_EQ(r->report.guard->stop_code, StatusCode::kOk);

  // EXPLAIN carries the stats line in its plan row as well.
  QueryGuard explain_guard(10000, 0);
  QueryOptions explain;
  explain.guard = &explain_guard;
  auto ex = db->Query("EXPLAIN SELECT a FROM t", explain);
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex->rows[0][0].AsString().find("guard:"), std::string::npos);

  // Unguarded statements report no guard stats.
  auto plain = db->Query("SELECT a FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->report.guard.has_value());
}

TEST(GuardrailSqlTest, GuardedWriteStatementsWork) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 100);
  QueryGuard insert_guard(10000, 0);
  QueryOptions insert;
  insert.guard = &insert_guard;
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (100, 'new')", insert).ok());
  QueryGuard delete_guard(10000, 0);
  QueryOptions del;
  del.guard = &delete_guard;
  ASSERT_TRUE(db->Execute("DELETE FROM t WHERE a = 100", del).ok());
}

TEST(GuardrailSqlTest, DeleteScanHonorsTheBudget) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 2000);
  QueryGuard guard(0, 1024);
  QueryOptions options;
  options.guard = &guard;
  // The scan phase charges each doomed row; an absurdly small budget trips
  // before any row is deleted, so the table is untouched.
  auto r = db->Query("DELETE FROM t", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  auto count = db->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 2000);
}

TEST(GuardrailSqlTest, ZeroOptionsRunUnguarded) {
  auto db = OpenDb();
  SeedIntTable(db.get(), 5);
  QueryOptions options;  // no guard
  EXPECT_EQ(options.guard, nullptr);
  auto r = db->Query("SELECT a FROM t", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);
  EXPECT_FALSE(r->report.guard.has_value());
}

// One binding per statement (DESIGN.md §12): a statement stopped inside an
// XADT scan leaves nothing bound to the thread, so the next statement on it
// runs unguarded and counts its own UDF calls from zero.
TEST(GuardrailSqlTest, AStoppedStatementLeavesNoBindingBehind) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE x (a XADT)").ok());
  ASSERT_TRUE(db->BulkInsert("x", {{Value::Xadt(EncodedLines(false))}}).ok());
  const std::string sql = "SELECT u.out FROM x, table(unnest(a, 'LINE')) u";
  QueryGuard guard(0, 4096);
  QueryOptions tight;
  tight.guard = &guard;
  auto stopped = db->Query(sql, tight);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ExecContext::Current(), nullptr);

  auto free_run = db->Query(sql);
  ASSERT_TRUE(free_run.ok()) << free_run.status().ToString();
  EXPECT_EQ(free_run->rows.size(), 2000u);
  EXPECT_EQ(free_run->udf_stats.table_calls, 1u);
  EXPECT_EQ(free_run->udf_stats.scalar_calls, 0u);
  EXPECT_FALSE(free_run->report.guard.has_value());
  EXPECT_EQ(ExecContext::Current(), nullptr);
}

// The same stop at the UDF boundary: the stopped call returns every byte it
// charged, and once the binding ends the guard is polled no more.
TEST(ScopedExecContextTest, AStoppedUdfReleasesItsChargeAndItsBinding) {
  auto registry = ordb::FunctionRegistry::WithBuiltins();
  ASSERT_TRUE(xadt::RegisterXadtFunctions(&registry).ok());
  const ordb::TableFunction* unnest = registry.FindTable("unnest");
  ASSERT_NE(unnest, nullptr);
  const std::vector<Value> args = {Value::Xadt(EncodedLines(true)),
                                   Value::Varchar("LINE")};
  const ordb::ColumnMask live = {true, true};
  QueryGuard guard(0, 4096);
  {
    GuardedStatement bind(&guard);
    auto rows = ordb::InvokeTable(*unnest, args, live);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(bind.ctx.udf_stats.table_calls, 1u);
  }
  EXPECT_EQ(guard.Stats().tracked_bytes, 0u);
  EXPECT_GT(guard.Stats().peak_tracked_bytes, 4096u);
  EXPECT_EQ(ExecContext::Current(), nullptr);
  const uint64_t polls = guard.Stats().checkpoints;
  auto rows = ordb::InvokeTable(*unnest, args, live);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2000u);
  EXPECT_EQ(guard.Stats().checkpoints, polls);
}

}  // namespace
}  // namespace xorator
