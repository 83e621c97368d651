#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ordb/database.h"
#include "ordb/health.h"
#include "ordb/page.h"

namespace xorator {
namespace {

using ordb::Database;
using ordb::DbOptions;
using ordb::EngineHealth;
using ordb::HealthSnapshot;
using ordb::HealthState;
using ordb::HealthStateName;
using ordb::kPageSize;
using ordb::QueryOptions;

/// Coverage for DESIGN.md §13: the EngineHealth state machine itself, the
/// database-level read-only latch / fail-fast gates it drives, TryRecover()
/// round-trips, and the PRAGMA health / PRAGMA scrub surface.

std::string NewDbPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

void RemoveDb(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

/// The "value" of a PRAGMA health row, or "" when the name is absent.
std::string HealthRow(Database* db, const std::string& name) {
  auto r = db->Query("PRAGMA health");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  for (const auto& row : r->rows) {
    if (row[0].AsString() == name) return row[1].AsString();
  }
  return "";
}

// ------------------------------------------------- the state machine itself

TEST(EngineHealthTest, StartsHealthyAndFullyUsable) {
  EngineHealth h;
  EXPECT_EQ(h.state(), HealthState::kHealthy);
  EXPECT_EQ(h.transitions(), 0u);
  EXPECT_TRUE(h.CheckWritable().ok());
  EXPECT_TRUE(h.CheckUsable().ok());
  HealthSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.state, HealthState::kHealthy);
  EXPECT_TRUE(snap.detail.empty());
}

TEST(EngineHealthTest, StateNamesAreStable) {
  // PRAGMA health and the resilience stats line render these; a rename
  // would silently break log scrapers.
  EXPECT_EQ(HealthStateName(HealthState::kHealthy), "Healthy");
  EXPECT_EQ(HealthStateName(HealthState::kDegraded), "Degraded");
  EXPECT_EQ(HealthStateName(HealthState::kReadOnly), "ReadOnly");
  EXPECT_EQ(HealthStateName(HealthState::kFailed), "Failed");
}

TEST(EngineHealthTest, EscalationsLatchMonotonically) {
  EngineHealth h;
  h.ReportDegraded("first quarantine");
  EXPECT_EQ(h.state(), HealthState::kDegraded);
  EXPECT_EQ(h.transitions(), 1u);
  EXPECT_TRUE(h.CheckWritable().ok());  // Degraded engines still write

  // Same severity again: detail refreshes, no transition is counted.
  h.ReportDegraded("second quarantine");
  EXPECT_EQ(h.transitions(), 1u);
  EXPECT_EQ(h.Snapshot().detail, "second quarantine");

  h.ReportReadOnly("WAL append failed");
  EXPECT_EQ(h.state(), HealthState::kReadOnly);
  EXPECT_EQ(h.transitions(), 2u);
  Status writable = h.CheckWritable();
  EXPECT_EQ(writable.code(), StatusCode::kUnavailable);
  EXPECT_NE(writable.message().find("ReadOnly"), std::string::npos);
  EXPECT_NE(writable.message().find("WAL append failed"), std::string::npos);
  EXPECT_NE(writable.message().find("TryRecover"), std::string::npos);
  EXPECT_TRUE(h.CheckUsable().ok());  // reads survive read-only mode

  // A lower-severity report after the latch is a no-op — the machine
  // absorbs fault storms without bouncing or losing the latched reason.
  h.ReportDegraded("late quarantine");
  EXPECT_EQ(h.state(), HealthState::kReadOnly);
  EXPECT_EQ(h.transitions(), 2u);
  EXPECT_EQ(h.Snapshot().detail, "WAL append failed");

  h.ReportFailed("storage stack detached");
  EXPECT_EQ(h.state(), HealthState::kFailed);
  EXPECT_EQ(h.transitions(), 3u);
  Status usable = h.CheckUsable();
  EXPECT_EQ(usable.code(), StatusCode::kUnavailable);
  EXPECT_NE(usable.message().find("reopen"), std::string::npos);
}

TEST(EngineHealthTest, RecoverIsTheOneUpwardEdge) {
  EngineHealth degraded;
  degraded.ReportDegraded("quarantined page");
  ASSERT_TRUE(degraded.Recover());
  EXPECT_EQ(degraded.state(), HealthState::kHealthy);
  EXPECT_EQ(degraded.transitions(), 2u);  // down and back up both count
  EXPECT_TRUE(degraded.Snapshot().detail.empty());

  EngineHealth read_only;
  read_only.ReportReadOnly("checkpoint failed");
  ASSERT_TRUE(read_only.Recover());
  EXPECT_EQ(read_only.state(), HealthState::kHealthy);
  EXPECT_TRUE(read_only.CheckWritable().ok());

  // Recovering a healthy machine is a no-op, not a transition.
  EngineHealth healthy;
  ASSERT_TRUE(healthy.Recover());
  EXPECT_EQ(healthy.transitions(), 0u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// The machine's one illegal transition: Recover() out of kFailed asserts in
// debug builds (release builds return false and stay failed — covered for
// every build by the contract comment in health.h; the abort is only
// observable where assert() is live).
TEST(EngineHealthDeathTest, RecoverOnFailedEngineAborts) {
  EngineHealth h;
  h.ReportFailed("storage stack detached");
  EXPECT_DEATH(
      {
        const bool recovered = h.Recover();
        ASSERT_FALSE(recovered);  // unreachable: the assert fires first
      },
      "Recover\\(\\) called on a kFailed engine");
}
#endif  // GTEST_HAS_DEATH_TEST && !defined(NDEBUG)

// ------------------------------------------------------ the status taxonomy

TEST(StatusTaxonomyTest, RetryableAndDegradableArePartitioned) {
  // The retry/degrade policy split (status.h): transient unavailability is
  // the only retryable class; media-level failures are degradable but NOT
  // retryable (re-reading a bad checksum cannot help); caller errors are
  // neither.
  EXPECT_TRUE(Status::Unavailable("transient").IsRetryable());
  EXPECT_FALSE(Status::Unavailable("transient").IsDegradable());

  EXPECT_TRUE(Status::IOError("disk died").IsDegradable());
  EXPECT_FALSE(Status::IOError("disk died").IsRetryable());
  EXPECT_TRUE(Status::Corruption("bad checksum").IsDegradable());
  EXPECT_FALSE(Status::Corruption("bad checksum").IsRetryable());

  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::OK().IsDegradable());
  EXPECT_FALSE(Status::InvalidArgument("caller bug").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("caller bug").IsDegradable());
}

// ------------------------------------------- database-level latch + recover

TEST(HealthDatabaseTest, WalDeviceFailureLatchesReadOnlyAndRecovers) {
  const std::string path = NewDbPath("xorator_health_walfail.db");
  {  // Phase A: a clean committed prefix (3 rows survive everything below).
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  DbOptions options;
  options.path = path;
  ordb::FaultOptions fault;
  fault.wal_fail_after_appends = 0;  // the WAL "device" is dead on arrival
  options.fault = fault;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->health()->state(), HealthState::kHealthy);

  // Mutations run (the WAL is only consulted at write-back), but the first
  // checkpoint needs the meta page's pre-image and the append fails.
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (4), (5)").ok());
  Status checkpoint = (*db)->Checkpoint();
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_EQ((*db)->health()->state(), HealthState::kReadOnly);
  EXPECT_GT((*db)->fault_pager()->stats().wal_failures, 0u);

  // Mutations now fail fast with the latched detail...
  Status insert = (*db)->Execute("INSERT INTO t VALUES (6)");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.code(), StatusCode::kUnavailable);
  EXPECT_NE(insert.message().find("ReadOnly"), std::string::npos);

  // ...while reads keep working and say why the engine is limping.
  auto count = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 5);
  EXPECT_EQ(count->report.health, HealthState::kReadOnly);
  EXPECT_EQ(HealthRow(db->get(), "health"), "ReadOnly");

  // Fix the "device" and re-arm without a restart. The uncheckpointed rows
  // 4 and 5 roll back with the epoch — exactly what a reopen would lose.
  (*db)->mutable_options()->fault->wal_fail_after_appends = -1;
  Status recovered = (*db)->TryRecover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ((*db)->health()->state(), HealthState::kHealthy);
  auto after = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows[0][0].AsInt(), 3);
  // The report has no resilience facts again: the engine is healthy.
  EXPECT_EQ(after->report.health, HealthState::kHealthy);
  EXPECT_EQ(after->report.quarantined_pages, 0u);
  EXPECT_FALSE(after->report.degraded.has_value());

  // And the write path genuinely works end to end, checkpoint included.
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (7)").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);
  ASSERT_TRUE((*db)->Close().ok());
  RemoveDb(path);
}

TEST(HealthDatabaseTest, ReadOnlyEngineFreezesDirtyWriteBack) {
  // Once kReadOnly latches because the journal failed, no further page
  // overwrite may reach the data file: the pre-image log can no longer
  // guarantee rollback. Reads must keep working through clean frames.
  const std::string path = NewDbPath("xorator_health_freeze.db");
  DbOptions options;
  options.path = path;
  options.buffer_pool_pages = 8;  // scans below must evict
  ordb::FaultOptions fault;       // zero rates: armed later via set_options
  options.fault = fault;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
  // Fat rows so the heap spans far more pages than the pool has frames —
  // the scans below must cycle every frame through eviction.
  const std::string pad(200, 'x');
  std::string values;
  for (int i = 0; i < 400; ++i) {
    if (!values.empty()) values += ", ";
    values.append("(").append(std::to_string(i)).append(", '").append(pad);
    values.append(std::to_string(i)).append("')");
  }
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES " + values).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());

  // Kill the WAL "device", dirty a few frames, and fail a checkpoint on
  // the meta page's pre-image append.
  ordb::FaultOptions dead = fault;
  dead.wal_fail_after_appends =
      static_cast<int64_t>((*db)->fault_pager()->stats().wal_appends);
  (*db)->mutable_options()->fault = dead;
  (*db)->fault_pager()->set_options(dead);
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1000, 'straggler')").ok());
  ASSERT_FALSE((*db)->Checkpoint().ok());
  ASSERT_EQ((*db)->health()->state(), HealthState::kReadOnly);

  // The freeze: scans (which must evict — 400 rows through 8 frames) keep
  // succeeding, and not one page write reaches the injector while the
  // engine is read-only.
  const uint64_t writes_before = (*db)->fault_pager()->stats().writes;
  for (int round = 0; round < 3; ++round) {
    auto count = (*db)->Query("SELECT COUNT(*) AS n FROM t");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count->rows[0][0].AsInt(), 401);
    EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);
  }
  EXPECT_EQ((*db)->fault_pager()->stats().writes, writes_before)
      << "a dirty frame was written back while the engine was read-only";

  // Recovery re-arms the stack and rolls back to the checkpoint: the
  // straggler row is gone, and mutations flow again.
  (*db)->mutable_options()->fault = fault;
  Status recovered = (*db)->TryRecover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ((*db)->health()->state(), HealthState::kHealthy);
  auto count = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 400);
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1001, 'post')").ok());
  ASSERT_TRUE((*db)->Close().ok());
  RemoveDb(path);
}

TEST(HealthDatabaseTest, MemoryBackedTryRecoverReArmsTheMachine) {
  auto opened = Database::Open({});
  ASSERT_TRUE(opened.ok());
  Database* db = opened->get();
  db->health()->ReportDegraded("synthetic quarantine");
  EXPECT_EQ(HealthRow(db, "health"), "Degraded");
  ASSERT_TRUE(db->TryRecover().ok());
  EXPECT_EQ(db->health()->state(), HealthState::kHealthy);
  EXPECT_EQ(HealthRow(db, "health"), "Healthy");
  // TryRecover on an already-healthy engine is a no-op.
  ASSERT_TRUE(db->TryRecover().ok());
}

// ------------------------------------------------------- the PRAGMA surface

TEST(HealthPragmaTest, HealthReportsTheCounterSet) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Query("PRAGMA health");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns, (std::vector<std::string>{"name", "value"}));
  std::vector<std::string> names;
  for (const auto& row : r->rows) names.push_back(row[0].AsString());
  for (const char* expected :
       {"health", "health_detail", "health_transitions", "io_retries",
        "checksum_failures", "quarantined_pages", "quarantine_hits",
        "scrub_pages_scanned", "scrub_pages_bad", "scrub_passes"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing PRAGMA health row: " << expected;
  }
  EXPECT_EQ(HealthRow(db->get(), "health"), "Healthy");
  EXPECT_EQ(HealthRow(db->get(), "quarantined_pages"), "0");
}

TEST(HealthPragmaTest, BadPragmasFailCleanly) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  auto unknown = (*db)->Query("PRAGMA nonsense");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("PRAGMA health"),
            std::string::npos);
  auto zero = (*db)->Query("PRAGMA scrub(0)");
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE((*db)->Query("PRAGMA scrub(").ok());
}

TEST(HealthPragmaTest, ScrubOnCleanDatabaseVerifiesEverything) {
  const std::string path = NewDbPath("xorator_health_scrub_clean.db");
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  auto r = (*db)->Query("PRAGMA scrub(4096)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  const auto& row = r->rows[0];
  EXPECT_GT(row[0].AsInt(), 0);   // pages_scanned
  EXPECT_EQ(row[3].AsInt(), 0);   // pages_bad
  EXPECT_TRUE(row[5].AsBool());   // wrapped: one slice covered the file
  EXPECT_EQ((*db)->health()->state(), HealthState::kHealthy);
  ASSERT_TRUE((*db)->Close().ok());
  RemoveDb(path);
}

// ----------------------------------------- degraded scans over real damage

TEST(HealthDegradedScanTest, SkipQuarantinedSelectSurvivesACorruptHeapPage) {
  const std::string path = NewDbPath("xorator_health_skipscan.db");
  ordb::PageId first_page = ordb::kInvalidPageId;
  constexpr int kRows = 400;  // enough to span several heap pages
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < kRows; ++i) {
      if (i > 0) insert += ", ";
      insert.append("(").append(std::to_string(i));
      insert.append(", 'payload-payload-payload-").append(std::to_string(i));
      insert.append("')");
    }
    ASSERT_TRUE((*db)->Execute(insert).ok());
    const ordb::TableInfo* t = (*db)->catalog()->FindTable("t");
    ASSERT_NE(t, nullptr);
    first_page = t->heap->first_page();
    ASSERT_NE(first_page, ordb::kInvalidPageId);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Rot the record area of the chain's head page. The page header — and
  // with it the next-page link the salvage path reads — stays intact.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(first_page) * kPageSize + 512);
    for (int i = 0; i < 64; ++i) f.put('\xEE');
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Strict scans must surface the corruption — skipping is opt-in.
  auto strict = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  EXPECT_EQ((*db)->health()->state(), HealthState::kDegraded);
  EXPECT_TRUE((*db)->buffer_pool()->IsQuarantined(first_page));
  EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);

  // The degraded scan loses that page's rows, not the query.
  QueryOptions skip;
  skip.skip_quarantined = true;
  auto degraded = (*db)->Query("SELECT COUNT(*) AS n FROM t", skip);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  const int64_t survivors = degraded->rows[0][0].AsInt();
  EXPECT_GT(survivors, 0);
  EXPECT_LT(survivors, kRows);
  EXPECT_EQ(degraded->report.health, HealthState::kDegraded);
  ASSERT_TRUE(degraded->report.degraded.has_value());
  EXPECT_EQ(degraded->report.degraded->skipped_pages, 1u);
  EXPECT_EQ(HealthRow(db->get(), "quarantined_pages"), "1");
  EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);

  // A checkpoint over poisoned pages would be pointless; crash out.
  (*db)->Kill();
  RemoveDb(path);
}

TEST(HealthDegradedScanTest, TryRecoverRequarantinesPersistentDamage) {
  const std::string path = NewDbPath("xorator_health_requarantine.db");
  ordb::PageId first_page = ordb::kInvalidPageId;
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2)").ok());
    const ordb::TableInfo* t = (*db)->catalog()->FindTable("t");
    ASSERT_NE(t, nullptr);
    first_page = t->heap->first_page();
    ASSERT_TRUE((*db)->Close().ok());
  }
  {  // bit rot the committed heap page
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(first_page) * kPageSize + 512);
    f.put('\xEE');
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_FALSE((*db)->Query("SELECT COUNT(*) AS n FROM t").ok());
  ASSERT_TRUE((*db)->buffer_pool()->IsQuarantined(first_page));

  // No journal record covers committed bit rot, so TryRecover cannot heal
  // it — but it must still succeed (the stack rebuilds fine), clear the
  // quarantine, and let the next fetch re-detect and re-quarantine.
  ASSERT_TRUE((*db)->TryRecover().ok());
  EXPECT_EQ((*db)->health()->state(), HealthState::kHealthy);
  EXPECT_FALSE((*db)->buffer_pool()->IsQuarantined(first_page));
  auto again = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE((*db)->buffer_pool()->IsQuarantined(first_page));
  EXPECT_EQ((*db)->health()->state(), HealthState::kDegraded);
  (*db)->Kill();
  RemoveDb(path);
}

}  // namespace
}  // namespace xorator
