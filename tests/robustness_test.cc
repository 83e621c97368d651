#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/bptree.h"
#include "ordb/buffer_pool.h"
#include "ordb/database.h"
#include "ordb/fault_pager.h"
#include "ordb/heap_file.h"
#include "ordb/page.h"
#include "ordb/query_guard.h"
#include "shred/loader.h"
#include "xadt/functions.h"
#include "xadt/xadt.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator {
namespace {

using ordb::Database;
using ordb::DbOptions;
using ordb::TableSchema;
using ordb::Tuple;
using ordb::TypeId;
using ordb::Value;

/// Failure-injection and malformed-input coverage: everything here must
/// return a clean Status (or a well-defined result), never crash.

std::unique_ptr<Database> OpenDb() {
  auto db = Database::Open({});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(xadt::RegisterXadtFunctions(db.value()->functions()).ok());
  return std::move(*db);
}

TEST(SqlRobustnessTest, GarbageStatementsReturnErrors) {
  auto db = OpenDb();
  for (const char* sql : {
           "", ";", "SELECT", "SELEC * FROM t", "SELECT ** FROM t",
           "SELECT a FROM t WHERE (a = 1", "SELECT a FROM t GROUP",
           "CREATE TABLE", "CREATE TABLE t (a BLOB)",
           "INSERT INTO t VALUES", "DELETE", "DELETE FROM",
           "SELECT a FROM t ORDER", "SELECT a FROM t LIMIT x",
           "SELECT a FROM t WHERE b IS", "\0x01\x02",
       }) {
    auto r = db->Query(sql);
    EXPECT_FALSE(r.ok()) << "should fail: " << sql;
  }
}

TEST(SqlRobustnessTest, DeepNestedParensDoNotOverflow) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  std::string sql = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 200; ++i) sql += "(";
  sql += "a = 1";
  for (int i = 0; i < 200; ++i) sql += ")";
  auto r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(SqlRobustnessTest, VeryLongStringLiteral) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a VARCHAR)").ok());
  std::string big(200000, 'x');
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES ('" + big + "')").ok());
  auto r = db->Query("SELECT length(a) AS n FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 200000);
}

TEST(SqlRobustnessTest, DeleteStatements) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX i ON t (a)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), "
                          "(3, 'x'), (4, 'z')")
                  .ok());
  auto deleted = db->Query("DELETE FROM t WHERE b = 'x'");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->rows[0][0].AsInt(), 2);
  auto rest = db->Query("SELECT COUNT(*) AS n FROM t");
  EXPECT_EQ(rest->rows[0][0].AsInt(), 2);
  // The index no longer returns deleted rows.
  auto via_index = db->Query("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(via_index.ok());
  EXPECT_TRUE(via_index->rows.empty());
  // Delete everything.
  auto all = db->Query("DELETE FROM t");
  EXPECT_EQ(all->rows[0][0].AsInt(), 2);
  EXPECT_EQ(db->Query("SELECT COUNT(*) AS n FROM t")->rows[0][0].AsInt(), 0);
  // Delete from a missing table fails cleanly.
  EXPECT_FALSE(db->Query("DELETE FROM missing").ok());
}

TEST(XadtRobustnessTest, CorruptXadtBytesThroughSql) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (x XADT)").ok());
  // Insert syntactically-XML-looking garbage and binary junk through the
  // engine's direct path (bypassing the raw-text INSERT conversion).
  TableSchema schema;
  schema.columns = {{"x", TypeId::kXadt}};
  std::vector<Tuple> rows;
  rows.push_back({Value::Xadt("Zgarbage-marker")});
  rows.push_back({Value::Xadt("R<a><unclosed>")});
  rows.push_back({Value::Xadt(std::string("C\x05\x01", 3))});
  rows.push_back({Value::Xadt("")});
  ASSERT_TRUE(db->BulkInsert("t", rows).ok());
  // Every XADT method surfaces a clean error (or a clean result for the
  // empty value), never a crash.
  for (const char* sql : {
           "SELECT xadtToXml(x) FROM t",
           "SELECT findKeyInElm(x, 'a', 'k') FROM t",
           "SELECT getElm(x, 'a', '', '') FROM t",
           "SELECT getElmIndex(x, '', 'a', 1, 1) FROM t",
           "SELECT u.out FROM t, table(unnest(x, 'a')) u",
       }) {
    auto r = db->Query(sql);
    EXPECT_FALSE(r.ok()) << sql << " should propagate the decode error";
  }
  // Restricting to the empty value succeeds.
  ASSERT_TRUE(db->Execute("DELETE FROM t").ok());
  ASSERT_TRUE(db->BulkInsert("t", {{Value::Xadt("")}}).ok());
  auto ok = db->Query("SELECT findKeyInElm(x, 'a', 'k') AS f FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows[0][0].AsInt(), 0);
}

TEST(XadtRobustnessTest, RandomByteFuzzNeverCrashes) {
  std::mt19937_64 rng(99);
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng() % 64;
    std::string bytes;
    for (size_t b = 0; b < len; ++b) {
      bytes.push_back(static_cast<char>(rng() % 256));
    }
    // Bias some inputs toward valid markers to reach deeper code.
    if (i % 3 == 0 && !bytes.empty()) bytes[0] = 'R';
    if (i % 3 == 1 && !bytes.empty()) bytes[0] = 'C';
    if (i % 7 == 0 && !bytes.empty()) bytes[0] = 'D';
    // Fuzzing only asserts "no crash": the status of each call is noise.
    XO_DISCARD_STATUS(xadt::ToXmlString(bytes), "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::TextContent(bytes), "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::FindKeyInElm(bytes, "a", "b"),
                      "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::GetElm(bytes, "a", "b", "c"),
                      "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::GetElmIndex(bytes, "", "a", 1, 2),
                      "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::Unnest(bytes, "a"),
                      "fuzz input; errors expected");
  }
  SUCCEED();
}

TEST(XmlRobustnessTest, RandomMutationFuzzNeverCrashes) {
  // Start from a valid document and flip bytes.
  datagen::ShakespeareOptions opts;
  opts.plays = 1;
  opts.acts_per_play = 1;
  auto play = datagen::ShakespeareGenerator(opts).GeneratePlay(0);
  std::string text = xml::Serialize(*play);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = text;
    int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] = static_cast<char>(rng() % 256);
    }
    XO_DISCARD_STATUS(xml::ParseDocument(mutated),
                      "mutated input; the test only asserts no crash");
  }
  SUCCEED();
}

TEST(LoaderRobustnessTest, NonConformingDocumentStillLoads) {
  // The shredder is driven by the mapping, not by validation: unexpected
  // elements recurse harmlessly, missing ones stay NULL.
  auto schema = benchutil::MapDtd(datagen::kPlaysDtd,
                                  benchutil::Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto db = OpenDb();
  shred::Loader loader(db.get(), &*schema);
  ASSERT_TRUE(loader.CreateTables().ok());
  auto doc = xml::ParseDocument(
      "<PLAY><UNKNOWN>stray</UNKNOWN><ACT><SPEECH><SPEAKER>s</SPEAKER>"
      "</SPEECH></ACT></PLAY>");
  ASSERT_TRUE(doc.ok());
  auto report = loader.Load({doc->root.get()});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto r = db->Query("SELECT COUNT(*) AS n FROM speech");
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST(EngineRobustnessTest, BufferPoolSmallerThanWorkload) {
  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_tiny_pool.db";
  std::remove(options.path.c_str());
  options.buffer_pool_pages = 8;  // absurdly small
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({Value::Int(i), Value::Varchar(std::string(100, 'b'))});
  }
  ASSERT_TRUE((*db)->BulkInsert("t", rows).ok());
  ASSERT_TRUE((*db)->Execute("CREATE INDEX i ON t (a)").ok());
  auto r = (*db)->Query("SELECT b FROM t WHERE a = 1234");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_GT((*db)->buffer_pool()->stats().evictions, 0u);
  std::remove(options.path.c_str());
}

// -- Fault injection (see src/ordb/fault_pager.h) ---------------------------

TEST(FaultInjectionTest, DeterministicGivenSeed) {
  // The same seed over the same operation sequence injects the same faults
  // at the same points.
  auto run = [](uint64_t seed) {
    ordb::FaultOptions fault;
    fault.seed = seed;
    fault.transient_rate = 0.3;
    fault.permanent_rate = 0.1;
    ordb::FaultInjectingPager pager(std::make_unique<ordb::MemoryPager>(),
                                    fault);
    std::vector<StatusCode> codes;
    char buf[ordb::kPageSize] = {};
    for (int i = 0; i < 200; ++i) {
      auto id = pager.Allocate();
      codes.push_back(id.status().code());
      if (!id.ok()) continue;
      codes.push_back(pager.Write(*id, buf).code());
      codes.push_back(pager.Read(*id, buf).code());
    }
    return std::make_pair(codes, pager.stats());
  };
  auto [codes_a, stats_a] = run(1234);
  auto [codes_b, stats_b] = run(1234);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(stats_a.transients, stats_b.transients);
  EXPECT_EQ(stats_a.permanents, stats_b.permanents);
  EXPECT_GT(stats_a.transients, 0u);
  EXPECT_GT(stats_a.permanents, 0u);
  auto [codes_c, stats_c] = run(4321);
  EXPECT_NE(codes_a, codes_c);  // a different seed is a different schedule
}

TEST(FaultInjectionTest, TransientScheduleCompletesViaRetry) {
  // A purely transient schedule is always survivable: the injector caps
  // consecutive transients below the pool's retry budget.
  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_transient.db";
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  options.buffer_pool_pages = 8;
  ordb::FaultOptions fault;
  fault.seed = 7;
  fault.transient_rate = 0.3;
  options.fault = fault;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::Int(i), Value::Varchar(std::string(80, 'f'))});
  }
  ASSERT_TRUE((*db)->BulkInsert("t", rows).ok());
  auto r = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 500);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_GT((*db)->fault_pager()->stats().transients, 0u);
  EXPECT_GT((*db)->buffer_pool()->stats().retries, 0u);
  ASSERT_TRUE((*db)->Close().ok());
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
}

TEST(FaultInjectionTest, PermanentFaultsFailCleanlyNotCrash) {
  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_permanent.db";
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  options.buffer_pool_pages = 8;
  ordb::FaultOptions fault;
  fault.seed = 3;
  fault.permanent_rate = 0.05;
  options.fault = fault;
  auto db = Database::Open(options);
  if (!db.ok()) {
    // The schedule can kill Open's initial checkpoint — that too must be a
    // clean error.
    EXPECT_EQ(db.status().code(), StatusCode::kIOError);
    return;
  }
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  int failures = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(i), Value::Varchar(std::string(80, 'p'))});
    }
    Status s = (*db)->BulkInsert("t", rows);
    if (!s.ok()) {
      EXPECT_TRUE(s.code() == StatusCode::kIOError ||
                  s.code() == StatusCode::kCorruption)
          << s.ToString();
      ++failures;
    }
    // However the operation died, every PageRef guard it created must have
    // released its pin on the way out.
    EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);
    Status q = (*db)->Query("SELECT COUNT(*) AS n FROM t").status();
    if (!q.ok()) {
      EXPECT_TRUE(q.code() == StatusCode::kIOError ||
                  q.code() == StatusCode::kCorruption)
          << q.ToString();
      ++failures;
    }
    EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT((*db)->fault_pager()->stats().permanents, 0u);
  (*db)->Kill();  // the destructor checkpoint would just fail again
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
}

TEST(FaultInjectionTest, SilentBitFlipsAreCaughtByChecksum) {
  ordb::FaultOptions fault;
  fault.seed = 11;
  fault.bit_flip_rate = 1.0;  // every write flips one stored bit
  auto base = std::make_unique<ordb::MemoryPager>();
  ordb::FaultInjectingPager pager(std::move(base), fault);
  ordb::BufferPool pool(&pager, 1);  // capacity 1 forces eviction + re-read
  auto p0 = pool.Create();
  ASSERT_TRUE(p0.ok());
  const ordb::PageId id0 = p0->id();
  p0->data()[300] = 'd';
  ASSERT_TRUE(p0->Release().ok());
  auto p1 = pool.Create();  // evicts (and silently corrupts) p0
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p1->Release().ok());
  auto fetched = pool.Fetch(id0);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
  EXPECT_GT(pager.stats().bit_flips, 0u);
  EXPECT_GT(pool.stats().checksum_failures, 0u);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

TEST(FaultInjectionTest, FailedOpsLeakNoPins) {
  // Drive the heap and the B+-tree straight over a faulty pager: whatever
  // each operation returns, the pool must be quiescent afterwards. A leaked
  // pin would not fail the operation itself — it would wedge eviction for
  // some later, unrelated one, which is exactly why the PageRef guards own
  // every pin on the error paths.
  for (uint64_t seed : {101u, 202u, 303u, 404u}) {
    ordb::FaultOptions fault;
    fault.seed = seed;
    fault.transient_rate = 0.2;
    fault.permanent_rate = 0.08;
    ordb::FaultInjectingPager pager(std::make_unique<ordb::MemoryPager>(),
                                    fault);
    ordb::BufferPool pool(&pager, 4);
    auto heap = ordb::HeapFile::Create(&pool);
    EXPECT_EQ(pool.PinnedFrameCount(), 0u);
    auto tree = ordb::BPlusTree::Create(&pool);
    EXPECT_EQ(pool.PinnedFrameCount(), 0u);
    const std::string record(600, 'r');
    const std::string big(3 * ordb::kPageSize, 'B');  // overflow chain
    for (int i = 0; i < 120; ++i) {
      if (heap.ok()) {
        auto rid = heap->Insert(i % 10 == 0 ? big : record);
        EXPECT_EQ(pool.PinnedFrameCount(), 0u)
            << "heap insert leaked a pin, seed " << seed;
        if (rid.ok()) {
          XO_DISCARD_STATUS(heap->Get(*rid), "faults expected");
          EXPECT_EQ(pool.PinnedFrameCount(), 0u)
              << "heap get leaked a pin, seed " << seed;
        }
      }
      if (tree.ok()) {
        XO_DISCARD_STATUS(tree->Insert(static_cast<uint64_t>(i) * 37, i),
                          "faults expected");
        EXPECT_EQ(pool.PinnedFrameCount(), 0u)
            << "tree insert leaked a pin, seed " << seed;
        XO_DISCARD_STATUS(tree->Find(static_cast<uint64_t>(i) * 37),
                          "faults expected");
        EXPECT_EQ(pool.PinnedFrameCount(), 0u)
            << "tree find leaked a pin, seed " << seed;
      }
    }
  }
}

TEST(FaultInjectionTest, TornWritesFailCleanlyAndAreDetectable) {
  ordb::FaultOptions fault;
  fault.seed = 13;
  fault.torn_write_rate = 1.0;
  auto base = std::make_unique<ordb::MemoryPager>();
  ordb::FaultInjectingPager pager(std::move(base), fault);
  auto id = pager.Allocate();
  ASSERT_TRUE(id.ok());
  char buf[ordb::kPageSize];
  std::memset(buf, 'x', ordb::kPageSize);
  ordb::SetPageChecksum(buf);
  Status s = pager.Write(*id, buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("torn"), std::string::npos);
  // The prefix that did reach "disk" no longer matches its checksum.
  char stored[ordb::kPageSize];
  ASSERT_TRUE(pager.base()->Read(*id, stored).ok());
  EXPECT_FALSE(ordb::VerifyPageChecksum(stored));
  EXPECT_GT(pager.stats().torn_writes, 0u);
}

TEST(LoaderRobustnessTest, FailedDocumentsAreIsolated) {
  // When the disk dies mid-batch, the loader records which documents were
  // lost instead of sinking the whole load.
  auto schema = benchutil::MapDtd(datagen::kPlaysDtd,
                                  benchutil::Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  datagen::ShakespeareOptions opts;
  opts.plays = 4;
  opts.acts_per_play = 1;
  opts.scenes_per_act = 2;
  auto corpus = datagen::ShakespeareGenerator(opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());

  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_isolate.db";
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  options.buffer_pool_pages = 8;
  ordb::FaultOptions fault;
  fault.seed = 21;
  fault.fail_after_writes = 9;  // enough for setup plus part of the load
  options.fault = fault;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  shred::Loader loader(db->get(), &*schema);
  ASSERT_TRUE(loader.CreateTables().ok());
  auto report = loader.Load(docs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->skipped, 0u);
  ASSERT_FALSE(report->errors.empty());
  EXPECT_EQ(report->documents + report->skipped, docs.size());
  EXPECT_EQ(report->skipped, report->errors.size());
  // Storage casualties are skips, never guard stops.
  EXPECT_EQ(report->cancelled, 0u);
  EXPECT_EQ(report->stopped_code, StatusCode::kOk);
  EXPECT_EQ(report->doc_millis.size(), docs.size());
  for (const auto& e : report->errors) {
    EXPECT_FALSE(e.status.ok());
    EXPECT_LT(e.document, docs.size());
  }
  // The same schedule with stop_on_error aborts at the first casualty.
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  auto db2 = Database::Open(options);
  ASSERT_TRUE(db2.ok());
  shred::Loader loader2(db2->get(), &*schema);
  ASSERT_TRUE(loader2.CreateTables().ok());
  shred::LoadOptions strict;
  strict.stop_on_error = true;
  auto report2 = loader2.Load(docs, strict);
  EXPECT_FALSE(report2.ok());
  (*db)->Kill();
  (*db2)->Kill();
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
}

TEST(LoaderRobustnessTest, GuardStopsEndTheBatchDistinctFromSkips) {
  // A guard stop mid-bulk-load latches, so the loader ends the batch and
  // reports it under `cancelled` / `stopped_code` — NOT as a per-document
  // skip, which is reserved for casualties that later documents can
  // survive (LoadReport docs in src/shred/loader.h).
  auto schema = benchutil::MapDtd(datagen::kPlaysDtd,
                                  benchutil::Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  datagen::ShakespeareOptions opts;
  opts.plays = 6;
  opts.acts_per_play = 1;
  opts.scenes_per_act = 2;
  auto corpus = datagen::ShakespeareGenerator(opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());

  // Part 1: a guard cancelled before the load begins trips at the first
  // between-document checkpoint. The report is still well formed: the
  // cancelled document got a timing entry, nothing was "skipped".
  {
    auto db = OpenDb();
    shred::Loader loader(db.get(), &*schema);
    ASSERT_TRUE(loader.CreateTables().ok());
    ordb::QueryGuard guard(0, 0);
    guard.Cancel();
    shred::LoadOptions options;
    options.guard = &guard;
    auto report = loader.Load(docs, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->documents, 0u);
    EXPECT_EQ(report->skipped, 0u);
    EXPECT_EQ(report->cancelled, 1u);
    EXPECT_EQ(report->stopped_code, StatusCode::kCancelled);
    EXPECT_FALSE(report->stopped_message.empty());
    EXPECT_EQ(report->doc_millis.size(), 1u);
    EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
    // The database stays usable for a clean re-run without the guard.
    auto retry = loader.Load(docs);
    ASSERT_TRUE(retry.ok());
    EXPECT_EQ(retry->documents, docs.size());
    EXPECT_EQ(retry->cancelled, 0u);
    EXPECT_EQ(retry->stopped_code, StatusCode::kOk);
    EXPECT_EQ(retry->doc_millis.size(), docs.size());
  }

  // Part 2: an already-expired deadline trips the same way but reports
  // kDeadlineExceeded — the two stop reasons stay distinguishable.
  {
    auto db = OpenDb();
    shred::Loader loader(db.get(), &*schema);
    ASSERT_TRUE(loader.CreateTables().ok());
    ordb::QueryGuard guard(/*deadline_millis=*/1, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    shred::LoadOptions options;
    options.guard = &guard;
    auto report = loader.Load(docs, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->cancelled, 1u);
    EXPECT_EQ(report->skipped, 0u);
    EXPECT_LT(report->documents, docs.size());
    EXPECT_EQ(report->stopped_code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(report->doc_millis.size(), report->documents + 1);
    EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
  }

  // Part 3: cancellation arriving from another thread while the bulk load
  // is in flight. The corpus here is much larger, and the canceller fires
  // as soon as the loader has polled the guard once — so the cancel lands
  // with nearly the whole batch still ahead of it.
  {
    datagen::ShakespeareOptions big;
    big.plays = 30;
    big.acts_per_play = 2;
    big.scenes_per_act = 3;
    auto big_corpus = datagen::ShakespeareGenerator(big).GenerateCorpus();
    std::vector<const xml::Node*> big_docs;
    for (const auto& d : big_corpus) big_docs.push_back(d.get());
    auto db = OpenDb();
    shred::Loader loader(db.get(), &*schema);
    ASSERT_TRUE(loader.CreateTables().ok());
    ordb::QueryGuard guard(0, 0);
    std::thread canceller([&guard] {
      while (guard.Stats().checkpoints == 0) std::this_thread::yield();
      guard.Cancel();
    });
    shred::LoadOptions options;
    options.guard = &guard;
    auto report = loader.Load(big_docs, options);
    canceller.join();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->cancelled, 1u);
    EXPECT_EQ(report->skipped, 0u);
    EXPECT_EQ(report->stopped_code, StatusCode::kCancelled);
    EXPECT_EQ(report->doc_millis.size(), report->documents + 1);
    EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
    // Whatever was committed before the stop is still queryable.
    auto r = db->Query("SELECT COUNT(*) AS n FROM speech");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(FaultInjectionTest, FaultsAndGuardsInterleaveCleanly) {
  // Injected storage faults and query guardrails race each other: every
  // operation must end in exactly one clean status (a fault code OR a
  // guard stop code OR success), with zero pins and a consistent WAL
  // afterwards — the two failure machineries must not corrupt each other.
  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_fault_guard.db";
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  options.buffer_pool_pages = 8;
  ordb::FaultOptions fault;
  fault.seed = 17;
  fault.transient_rate = 0.15;
  fault.permanent_rate = 0.03;
  options.fault = fault;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // A raw pointer shared with the canceller thread: re-inspecting the
  // Result from two threads would race on the debug inspected flag.
  Database* db = opened->get();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());

  auto clean_code = [](StatusCode c) {
    return c == StatusCode::kOk || c == StatusCode::kIOError ||
           c == StatusCode::kCorruption ||
           ordb::QueryGuard::IsStopCode(c);
  };

  // One guard per query, each published (by index) once built and alive
  // until the canceller is joined; the canceller keeps cancelling the
  // latest one.
  constexpr int kQueries = 40;
  std::vector<std::unique_ptr<ordb::QueryGuard>> guards(kQueries);
  std::atomic<int> current{-1};
  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const int i = current.load(std::memory_order_acquire);
      if (i >= 0) guards[i]->Cancel();
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < kQueries; ++i) {
    std::vector<Tuple> rows;
    for (int r = 0; r < 50; ++r) {
      rows.push_back({Value::Int(i * 50 + r),
                      Value::Varchar(std::string(60, 'g'))});
    }
    Status ins = db->BulkInsert("t", rows);
    EXPECT_TRUE(clean_code(ins.code())) << ins.ToString();
    EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);

    guards[i] = std::make_unique<ordb::QueryGuard>(i % 3 == 0 ? 1 : 0,
                                                   i % 5 == 0 ? 4096 : 0);
    current.store(i, std::memory_order_release);
    ordb::QueryOptions qopts;
    qopts.guard = guards[i].get();
    auto q = db->Query(
        "SELECT COUNT(*) AS n FROM t t1, t t2 WHERE t1.a < 5", qopts);
    EXPECT_TRUE(clean_code(q.status().code())) << q.status().ToString();
    EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
  }
  stop.store(true, std::memory_order_relaxed);
  canceller.join();

  // WAL consistency: a checkpoint either succeeds or dies on a storage
  // fault — never on anything the guards left behind.
  Status ckpt = db->Checkpoint();
  EXPECT_TRUE(clean_code(ckpt.code())) << ckpt.ToString();
  EXPECT_EQ(db->buffer_pool()->PinnedFrameCount(), 0u);
  db->Kill();  // a destructor checkpoint could just fail again
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
}

TEST(EngineRobustnessTest, SelfJoinUsesDistinctAliases) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE n (id INTEGER, parent INTEGER)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO n VALUES (1, 0), (2, 1), (3, 1), "
                          "(4, 2)")
                  .ok());
  auto r = db->Query(
      "SELECT child.id FROM n AS parent, n AS child "
      "WHERE child.parent = parent.id AND parent.parent = 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);  // children of node 1
}

TEST(EngineRobustnessTest, NullHeavyData) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (NULL, NULL), (1, NULL), "
                          "(NULL, 'x')")
                  .ok());
  EXPECT_EQ(db->Query("SELECT COUNT(*) AS n FROM t WHERE a IS NULL")
                ->rows[0][0]
                .AsInt(),
            2);
  EXPECT_EQ(db->Query("SELECT COUNT(b) AS n FROM t")->rows[0][0].AsInt(), 1);
  // NULL never satisfies comparisons.
  EXPECT_EQ(db->Query("SELECT COUNT(*) AS n FROM t WHERE a = 1")
                ->rows[0][0]
                .AsInt(),
            1);
  EXPECT_EQ(db->Query("SELECT COUNT(*) AS n FROM t WHERE a <> 1")
                ->rows[0][0]
                .AsInt(),
            0);
  // Sorting with nulls is stable and total.
  auto sorted = db->Query("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->rows[0][0].is_null());
}

// A page that failed its checksum is quarantined: the second statement to
// touch it is rejected from the quarantine set without re-reading the disk
// (DESIGN.md §13). The zero-rate fault injector is wrapped purely for its
// read counter.
TEST(FaultInjectionTest, QuarantinedPageFailsFastWithoutDiskIO) {
  DbOptions options;
  options.path = ::testing::TempDir() + "/xorator_quarantine.db";
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
  ordb::PageId first_page = ordb::kInvalidPageId;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
    const ordb::TableInfo* t = (*db)->catalog()->FindTable("t");
    ASSERT_NE(t, nullptr);
    first_page = t->heap->first_page();
    ASSERT_TRUE((*db)->Close().ok());
  }
  {  // rot the heap page's record area behind the engine's back
    std::fstream f(options.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(first_page) * ordb::kPageSize + 512);
    f.put('\xEE');
  }
  options.fault = ordb::FaultOptions{};  // all rates zero: a pure counter
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto first = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE((*db)->buffer_pool()->IsQuarantined(first_page));
  EXPECT_EQ((*db)->buffer_pool()->stats().quarantined_pages, 1u);
  const uint64_t reads_after_first = (*db)->fault_pager()->stats().reads;

  // Same statement again: still kCorruption, but served from the
  // quarantine set — not one further pager read happens (every healthy
  // page the scan needs is already resident).
  auto second = (*db)->Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCorruption);
  EXPECT_EQ((*db)->fault_pager()->stats().reads, reads_after_first);
  EXPECT_GT((*db)->buffer_pool()->stats().quarantine_hits, 0u);
  EXPECT_EQ((*db)->buffer_pool()->PinnedFrameCount(), 0u);
  (*db)->Kill();  // checkpointing over poisoned pages helps nobody
  std::remove(options.path.c_str());
  std::remove((options.path + ".wal").c_str());
}

// Degraded-scan mode extends to XADT fragments: a value whose bytes no
// longer decode loses its own fragments, not the whole query — strictly
// opt-in (the strict expectations live in CorruptXadtBytesThroughSql).
TEST(XadtRobustnessTest, DegradedScanSkipsCorruptFragments) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (x XADT)").ok());
  std::vector<Tuple> rows;
  rows.push_back({Value::Xadt("Zgarbage-marker")});
  rows.push_back({Value::Xadt("R<a><unclosed>")});
  ASSERT_TRUE(db->BulkInsert("t", rows).ok());
  const std::string sql = "SELECT u.out FROM t, table(unnest(x, 'a')) u";
  // Strict mode still propagates the decode error.
  ASSERT_FALSE(db->Query(sql).ok());
  // Skip mode drops both broken values and reports the count in the
  // statement report.
  ordb::QueryOptions skip;
  skip.skip_quarantined = true;
  auto degraded = db->Query(sql, skip);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->rows.empty());
  ASSERT_TRUE(degraded->report.degraded.has_value());
  EXPECT_EQ(degraded->report.degraded->skipped_fragments, 2u);
}

// A value that fails partway through its scan loses all of its own rows,
// not just the ones after the damage, whether or not the plan reads the
// fragment column, and counts once as a skipped fragment.
TEST(XadtRobustnessTest, DegradedScanDropsAllRowsOfADamagedValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INTEGER, x XADT)").ok());
  std::vector<Tuple> rows;
  rows.push_back({Value::Int(1), Value::Xadt("R<a>one</a><a>two</a><a>")});
  rows.push_back({Value::Int(2), Value::Xadt("R<a>three</a>")});
  ASSERT_TRUE(db->BulkInsert("t", rows).ok());
  ordb::QueryOptions skip;
  skip.skip_quarantined = true;
  for (const char* sql : {
           "SELECT u.out FROM t, table(unnest(x, 'a')) u",
           "SELECT u.out, u.frag FROM t, table(unnest(x, 'a')) u",
           "SELECT id FROM t, table(unnest(x, 'a')) u",
       }) {
    ASSERT_FALSE(db->Query(sql).ok()) << sql;
    auto degraded = db->Query(sql, skip);
    ASSERT_TRUE(degraded.ok()) << sql << ": " << degraded.status().ToString();
    ASSERT_EQ(degraded->rows.size(), 1u) << sql;
    ASSERT_TRUE(degraded->report.degraded.has_value()) << sql;
    EXPECT_EQ(degraded->report.degraded->skipped_fragments, 1u) << sql;
  }
}

}  // namespace
}  // namespace xorator
