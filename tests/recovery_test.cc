#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/database.h"
#include "ordb/exec_context.h"
#include "ordb/page.h"
#include "ordb/wal.h"
#include "shred/loader.h"
#include "xml/dom.h"

namespace xorator {
namespace {

using ordb::Database;
using ordb::DbOptions;
using ordb::kPageSize;
using ordb::PageId;

/// Crash-recovery coverage: a database killed at a randomized point — with
/// the crash optionally tearing the log or the data file — must reopen to
/// exactly its last checkpoint, with every committed tuple queryable.

std::map<std::string, int64_t> TableCounts(Database* db,
                                           const mapping::MappedSchema& s) {
  std::map<std::string, int64_t> counts;
  for (const auto& t : s.tables) {
    auto r = db->Query("SELECT COUNT(*) AS n FROM " + t.name);
    counts[t.name] = r.ok() ? (*r).rows[0][0].AsInt() : -1;
  }
  return counts;
}

void AppendBytes(const std::string& path, size_t n, std::mt19937_64* rng) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  for (size_t i = 0; i < n; ++i) f.put(static_cast<char>((*rng)() % 256));
}

void ScribbleAt(const std::string& path, uint64_t offset, size_t n,
                std::mt19937_64* rng) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  for (size_t i = 0; i < n; ++i) f.put(static_cast<char>((*rng)() % 256));
}

/// Page ids of the intact pre-image records in a WAL file.
std::vector<PageId> WalLoggedPages(const std::string& wal_path) {
  std::vector<PageId> pages;
  std::ifstream wal(wal_path, std::ios::binary);
  if (!wal) return pages;
  wal.seekg(16);  // header
  constexpr size_t kRecordBytes = 12 + kPageSize;
  std::vector<char> record(kRecordBytes);
  while (wal.read(record.data(), kRecordBytes)) {
    PageId id;
    std::memcpy(&id, record.data() + 4, 4);
    pages.push_back(id);
  }
  return pages;
}

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mapped = benchutil::MapDtd(datagen::kPlaysDtd,
                                    benchutil::Mapping::kXorator);
    ASSERT_TRUE(mapped.ok());
    schema_ = new mapping::MappedSchema(std::move(*mapped));
    // Big enough that a 12-frame pool must evict mid-epoch (which is what
    // populates the journal), small enough for 50+ trials.
    datagen::ShakespeareOptions opts;
    opts.plays = 6;
    opts.acts_per_play = 1;
    opts.scenes_per_act = 3;
    opts.speeches_per_scene = 12;
    opts.max_lines_per_speech = 5;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::ShakespeareGenerator(opts).GenerateCorpus());
    for (const auto& d : *corpus_) docs_.push_back(d.get());
  }

  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
    delete schema_;
    schema_ = nullptr;
    docs_.clear();
  }

  std::string NewDbPath(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    return path;
  }

  static mapping::MappedSchema* schema_;
  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static std::vector<const xml::Node*> docs_;
};

mapping::MappedSchema* RecoveryTest::schema_ = nullptr;
std::vector<std::unique_ptr<xml::Node>>* RecoveryTest::corpus_ = nullptr;
std::vector<const xml::Node*> RecoveryTest::docs_;

TEST_F(RecoveryTest, CleanReopenPreservesDataAndIndexes) {
  const std::string path = NewDbPath("xorator_clean_reopen.db");
  std::map<std::string, int64_t> counts;
  std::string indexed_column;
  int64_t indexed_hits = 0;
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    shred::Loader loader(db->get(), schema_);
    ASSERT_TRUE(loader.CreateTables().ok());
    auto report = loader.Load(docs_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->documents, docs_.size());
    // Index an integer column of `speech` so the catalog round-trip covers
    // indexes too.
    const ordb::TableInfo* speech = (*db)->catalog()->FindTable("speech");
    ASSERT_NE(speech, nullptr);
    for (const auto& col : speech->schema.columns) {
      if (col.type == ordb::TypeId::kInteger) {
        indexed_column = col.name;
        break;
      }
    }
    ASSERT_FALSE(indexed_column.empty());
    ASSERT_TRUE((*db)->CreateIndex("speech", indexed_column).ok());
    counts = TableCounts(db->get(), *schema_);
    auto hits = (*db)->Query("SELECT COUNT(*) AS n FROM speech WHERE " +
                             indexed_column + " = 1");
    ASSERT_TRUE(hits.ok());
    indexed_hits = (*hits).rows[0][0].AsInt();
    ASSERT_TRUE((*db)->Close().ok());
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(TableCounts(db->get(), *schema_), counts);
  // The index came back with the catalog and still answers correctly.
  const ordb::TableInfo* speech = (*db)->catalog()->FindTable("speech");
  ASSERT_NE(speech, nullptr);
  EXPECT_NE(speech->FindIndex(indexed_column), nullptr);
  auto hits = (*db)->Query("SELECT COUNT(*) AS n FROM speech WHERE " +
                           indexed_column + " = 1");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ((*hits).rows[0][0].AsInt(), indexed_hits);
  ASSERT_TRUE((*db)->Close().ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST_F(RecoveryTest, FreshDatabaseSurvivesImmediateCrash) {
  const std::string path = NewDbPath("xorator_fresh_crash.db");
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    // Mid-epoch DDL that never reaches a checkpoint.
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2)").ok());
    (*db)->Kill();
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The table rolled back with the epoch: the committed state is the empty
  // catalog from Open's initial checkpoint.
  EXPECT_EQ((*db)->catalog()->FindTable("t"), nullptr);
  ASSERT_TRUE((*db)->Close().ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// The headline requirement: >= 50 randomized crash points during a
// Shakespeare-fixture load. Each trial commits a random prefix of the
// corpus, keeps loading, crashes without checkpointing, then (randomly)
// tears the log tail, tears the data-file tail, scribbles over uncommitted
// pages, or scribbles over WAL-protected committed pages. Reopening must
// replay the journal and land exactly on the committed counts.
TEST_F(RecoveryTest, RandomizedCrashPoints) {
  const std::string path = NewDbPath("xorator_crash.db");
  const std::string wal_path = path + ".wal";
  int trials_with_wal_records = 0;
  int trials_with_restores = 0;
  for (int trial = 0; trial < 56; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::mt19937_64 rng(1000 + trial);
    std::remove(path.c_str());
    std::remove(wal_path.c_str());
    std::map<std::string, int64_t> committed;
    uint64_t committed_bytes = 0;
    {
      DbOptions options;
      options.path = path;
      options.buffer_pool_pages = 6;  // force mid-epoch write-backs
      auto db = Database::Open(options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      shred::Loader loader(db->get(), schema_);
      ASSERT_TRUE(loader.CreateTables().ok());
      size_t committed_docs = 1 + rng() % 3;
      std::vector<const xml::Node*> batch(docs_.begin(),
                                          docs_.begin() + committed_docs);
      auto report = loader.Load(batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE((*db)->Checkpoint().ok());
      committed = TableCounts(db->get(), *schema_);
      committed_bytes = std::filesystem::file_size(path);
      // Keep loading past the checkpoint; none of this may survive.
      size_t extra = 1 + rng() % 3;
      std::vector<const xml::Node*> tail(
          docs_.begin() + committed_docs,
          docs_.begin() + committed_docs + extra);
      auto report2 = loader.Load(tail);
      ASSERT_TRUE(report2.ok()) << report2.status().ToString();
      if ((*db)->wal()->records_logged() > 0) ++trials_with_wal_records;
      (*db)->Kill();
    }
    // Post-crash damage, as a torn power-loss would leave it.
    switch (rng() % 5) {
      case 0:
        break;  // plain crash
      case 1:  // crash mid-append of a journal record
        AppendBytes(wal_path, 1 + rng() % 9000, &rng);
        break;
      case 2:  // torn final data-file write (unaligned tail)
        AppendBytes(path, 1 + rng() % (kPageSize + 100), &rng);
        break;
      case 3: {  // torn writes inside the uncommitted region
        uint64_t size = std::filesystem::file_size(path);
        if (size > committed_bytes) {
          uint64_t offset =
              committed_bytes + rng() % (size - committed_bytes);
          ScribbleAt(path, offset, 1 + rng() % 512, &rng);
        }
        break;
      }
      case 4: {  // torn writes over committed pages the journal protects
        std::vector<PageId> logged = WalLoggedPages(wal_path);
        if (!logged.empty()) {
          PageId victim = logged[rng() % logged.size()];
          ScribbleAt(path, static_cast<uint64_t>(victim) * kPageSize,
                     1 + rng() % kPageSize, &rng);
          ++trials_with_restores;
        }
        break;
      }
    }
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(TableCounts(db->get(), *schema_), committed);
    auto q = (*db)->Query("SELECT COUNT(*) AS n FROM speech");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ((*q).rows[0][0].AsInt(), committed["speech"]);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // The harness actually exercised the journal, not just truncation.
  EXPECT_GT(trials_with_wal_records, 0);
  EXPECT_GT(trials_with_restores, 0);
  std::remove(path.c_str());
  std::remove(wal_path.c_str());
}

// Crash points driven by the fault injector: the disk "dies" after a
// seeded number of writes mid-load. Whatever checkpoint last returned OK
// is the state that must come back.
TEST_F(RecoveryTest, InjectedDiskLossRollsBackToLastGoodCheckpoint) {
  const std::string path = NewDbPath("xorator_diskloss.db");
  const std::string wal_path = path + ".wal";
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::mt19937_64 rng(77 + trial);
    std::remove(path.c_str());
    std::remove(wal_path.c_str());
    std::map<std::string, int64_t> committed;
    {  // Phase A: a healthy committed prefix.
      DbOptions options;
      options.path = path;
      options.buffer_pool_pages = 12;
      auto db = Database::Open(options);
      ASSERT_TRUE(db.ok());
      shred::Loader loader(db->get(), schema_);
      ASSERT_TRUE(loader.CreateTables().ok());
      std::vector<const xml::Node*> batch(docs_.begin(), docs_.begin() + 2);
      ASSERT_TRUE(loader.Load(batch).ok());
      ASSERT_TRUE((*db)->Close().ok());
    }
    {  // Phase B: the disk dies after a random number of writes.
      DbOptions options;
      options.path = path;
      options.buffer_pool_pages = 12;
      ordb::FaultOptions fault;
      fault.seed = rng();
      fault.fail_after_writes = static_cast<int64_t>(rng() % 40);
      options.fault = fault;
      auto db = Database::Open(options);
      if (db.ok()) {
        shred::Loader loader(db->get(), schema_);
        committed = TableCounts(db->get(), *schema_);
        std::vector<const xml::Node*> tail(docs_.begin() + 2,
                                           docs_.begin() + 4);
        shred::LoadOptions load_options;
        load_options.stop_on_error = true;
        XO_DISCARD_STATUS(loader.Load(tail, load_options),
                          "the injected disk failure may kill the load at any "
                          "point; the invariant under test is what Open() "
                          "recovers afterwards, not whether this load survived");
        std::map<std::string, int64_t> current =
            TableCounts(db->get(), *schema_);
        if ((*db)->Checkpoint().ok()) committed = current;
        (*db)->Kill();
      } else {
        // The disk died during Open's own recovery/checkpoint: the phase-A
        // state must still be intact.
        DbOptions clean;
        clean.path = path;
        auto reopened = Database::Open(clean);
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
        committed = TableCounts(reopened->get(), *schema_);
        ASSERT_TRUE((*reopened)->Close().ok());
      }
    }
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(TableCounts(db->get(), *schema_), committed);
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::remove(path.c_str());
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  const std::string path = NewDbPath("xorator_idempotent.db");
  const std::string wal_path = path + ".wal";
  std::map<std::string, int64_t> committed;
  {
    DbOptions options;
    options.path = path;
    options.buffer_pool_pages = 12;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    shred::Loader loader(db->get(), schema_);
    ASSERT_TRUE(loader.CreateTables().ok());
    std::vector<const xml::Node*> batch(docs_.begin(), docs_.begin() + 2);
    ASSERT_TRUE(loader.Load(batch).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    committed = TableCounts(db->get(), *schema_);
    std::vector<const xml::Node*> tail(docs_.begin() + 2, docs_.begin() + 4);
    ASSERT_TRUE(loader.Load(tail).ok());
    (*db)->Kill();
  }
  // Recover explicitly, twice: re-applying the same pre-images must be a
  // no-op (Open below runs it a third time).
  auto first = ordb::RecoverFromWal(path, wal_path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->recovered);
  auto second = ordb::RecoverFromWal(path, wal_path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->pages_restored, first->pages_restored);
  EXPECT_EQ(second->page_count, first->page_count);
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(TableCounts(db->get(), *schema_), committed);
  ASSERT_TRUE((*db)->Close().ok());
  std::remove(path.c_str());
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, SilentCommittedCorruptionIsDetectedNotCrashed) {
  const std::string path = NewDbPath("xorator_bitrot.db");
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    shred::Loader loader(db->get(), schema_);
    ASSERT_TRUE(loader.CreateTables().ok());
    std::vector<const xml::Node*> batch(docs_.begin(), docs_.begin() + 2);
    ASSERT_TRUE(loader.Load(batch).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Bit rot in the committed region: no journal record covers it, so
  // recovery cannot heal it — but every read must fail with a clean
  // kCorruption, never crash or return garbage rows.
  const uint64_t pages = std::filesystem::file_size(path) / kPageSize;
  ASSERT_GT(pages, 1u);
  std::mt19937_64 rng(5);
  for (uint64_t p = 1; p < pages; ++p) {  // spare the catalog on page 0
    uint64_t offset = p * kPageSize + 100 + rng() % (kPageSize - 200);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x10));
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  int corruption_errors = 0;
  for (const auto& t : schema_->tables) {
    auto r = (*db)->Query("SELECT COUNT(*) AS n FROM " + t.name);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
          << t.name << ": " << r.status().ToString();
      ++corruption_errors;
    }
  }
  EXPECT_GT(corruption_errors, 0);
  EXPECT_GT((*db)->buffer_pool()->stats().checksum_failures, 0u);
  (*db)->Kill();  // a checkpoint over poisoned pages is pointless
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// The incremental scrubber (DESIGN.md §13) walks the file in budgeted
// slices, finds committed bit rot that no query has touched yet, and
// quarantines it — turning latent corruption into contained, observable
// degradation before a reader trips over it.
TEST_F(RecoveryTest, ScrubberFindsCommittedBitRotIncrementally) {
  const std::string path = NewDbPath("xorator_scrub_rot.db");
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    shred::Loader loader(db->get(), schema_);
    ASSERT_TRUE(loader.CreateTables().ok());
    std::vector<const xml::Node*> batch(docs_.begin(), docs_.begin() + 2);
    ASSERT_TRUE(loader.Load(batch).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  const uint64_t pages = std::filesystem::file_size(path) / kPageSize;
  ASSERT_GT(pages, 2u);
  const PageId victim = static_cast<PageId>(pages / 2);  // never the meta page
  {  // deterministic single-bit rot, far from the page header
    const uint64_t offset = static_cast<uint64_t>(victim) * kPageSize + 300;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x10));
  }
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Walk the whole file in 3-page slices; the cursor persists across calls.
  uint64_t bad_total = 0;
  int slices = 0;
  for (;; ++slices) {
    ASSERT_LT(slices, 10000);  // the cursor must make progress
    auto report = (*db)->Scrub(3);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    bad_total += report->pages_bad;
    if (report->wrapped) break;
  }
  EXPECT_GT(slices, 1);  // genuinely incremental, not one big pass
  EXPECT_EQ(bad_total, 1u);
  EXPECT_TRUE((*db)->buffer_pool()->IsQuarantined(victim));
  EXPECT_EQ((*db)->health()->state(), ordb::HealthState::kDegraded);
  const ordb::BufferPoolStats stats = (*db)->buffer_pool()->stats();
  EXPECT_EQ(stats.scrub_pages_bad, 1u);
  EXPECT_EQ(stats.scrub_passes, 1u);
  EXPECT_GE(stats.scrub_pages_scanned, pages);
  // A second full pass re-reports the quarantined page as bad (from the
  // quarantine set, without re-reading it) and bumps the pass counter.
  auto second = (*db)->Scrub(100000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->wrapped);
  EXPECT_EQ(second->pages_bad, 1u);
  EXPECT_EQ((*db)->buffer_pool()->stats().scrub_passes, 2u);
  (*db)->Kill();  // checkpointing over poisoned pages is pointless
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// The scrubber is paced by the thread's bound QueryGuard like any other
// scan: a cancelled (or expired) guard unwinds the slice cleanly.
TEST_F(RecoveryTest, ScrubSliceHonorsTheBoundGuard) {
  DbOptions options;  // memory-backed: pacing is independent of the pager
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  {
    ordb::QueryGuard guard(0, 0);
    guard.Cancel();
    ordb::ExecContext ctx;
    ctx.guard = &guard;
    ordb::ScopedExecContext bind(ctx);
    auto paced = (*db)->buffer_pool()->ScrubSlice(1000);
    ASSERT_FALSE(paced.ok());
    EXPECT_EQ(paced.status().code(), StatusCode::kCancelled);
  }
  // Unbound again, the same slice runs to completion.
  auto free_run = (*db)->buffer_pool()->ScrubSlice(1000);
  ASSERT_TRUE(free_run.ok()) << free_run.status().ToString();
  EXPECT_TRUE(free_run->wrapped);
  EXPECT_EQ(free_run->pages_bad, 0u);
  ASSERT_TRUE((*db)->Close().ok());
}

TEST_F(RecoveryTest, FailedOpenLeavesTheFileUntouched) {
  const std::string path = NewDbPath("xorator_failed_open.db");
  {
    DbOptions options;
    options.path = path;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    shred::Loader loader(db->get(), schema_);
    ASSERT_TRUE(loader.CreateTables().ok());
    std::vector<const xml::Node*> batch(docs_.begin(), docs_.begin() + 1);
    ASSERT_TRUE(loader.Load(batch).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Break the catalog magic but restamp the page checksum, so the open
  // fails at LoadCatalog rather than at the checksum gate.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    std::vector<char> page(kPageSize);
    f.read(page.data(), kPageSize);
    std::memset(page.data() + ordb::kPageHeaderBytes, 0xEE, 4);
    ordb::SetPageChecksum(page.data());
    f.seekp(0);
    f.write(page.data(), kPageSize);
  }
  std::ifstream before_f(path, std::ios::binary);
  const std::string before((std::istreambuf_iterator<char>(before_f)),
                           std::istreambuf_iterator<char>());
  before_f.close();
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption)
      << db.status().ToString();
  // The failed open must not have rewritten the meta page or any other
  // byte: the on-disk state is the evidence a repair tool would need.
  std::ifstream after_f(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(after_f)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(before, after);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace xorator
