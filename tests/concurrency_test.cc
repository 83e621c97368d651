// Multi-threaded stress over Database's statement-level entry points.
//
// Database synchronizes statements on an annotated reader/writer lock
// (see database.h and DESIGN.md section 10): SELECT/EXPLAIN take it shared
// and run genuinely in parallel, while mutating statements take it
// exclusively, and the components underneath (BufferPool, Wal, the Catalog
// registry) are internally synchronized. These tests hammer that boundary
// from many threads — including a rendezvous test that FAILS unless N
// readers really are inside Query() simultaneously — and under
// -fsanitize=thread (the ThreadSanitize build type) they double as a
// data-race detector for the locking.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/database.h"
#include "ordb/query_guard.h"

namespace xorator {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;

class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ShakespeareOptions opts;
    opts.plays = 3;
    opts.acts_per_play = 2;
    opts.scenes_per_act = 2;
    opts.speeches_per_scene = 6;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::ShakespeareGenerator(opts).GenerateCorpus());
    std::vector<const xml::Node*> docs;
    for (const auto& d : *corpus_) docs.push_back(d.get());

    ExperimentOptions options;
    options.mapping = Mapping::kHybrid;
    auto built = BuildExperimentDb(datagen::kShakespeareDtd, docs, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    db_ = new ExperimentDb(std::move(*built));

    // The XADT-mapping twin, used by the cancellation tests: its speech
    // table keeps LINE content as XADT values, so queries spend their time
    // inside findKeyInElm fragment scans.
    ExperimentOptions xadt_options;
    xadt_options.mapping = Mapping::kXorator;
    auto xbuilt = BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                    xadt_options);
    ASSERT_TRUE(xbuilt.ok()) << xbuilt.status().ToString();
    xadt_db_ = new ExperimentDb(std::move(*xbuilt));
  }

  static void TearDownTestSuite() {
    delete xadt_db_;
    xadt_db_ = nullptr;
    delete db_;
    db_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static ExperimentDb* db_;
  static ExperimentDb* xadt_db_;
};

std::vector<std::unique_ptr<xml::Node>>* ConcurrencyTest::corpus_ = nullptr;
ExperimentDb* ConcurrencyTest::db_ = nullptr;
ExperimentDb* ConcurrencyTest::xadt_db_ = nullptr;

TEST_F(ConcurrencyTest, ParallelReadersSeeConsistentResults) {
  // Reference answers, computed single-threaded.
  std::vector<std::string> sqls;
  for (const auto& q : benchutil::ShakespeareQueries()) {
    sqls.push_back(q.hybrid_sql);
  }
  std::vector<size_t> expected_rows;
  for (const auto& sql : sqls) {
    auto r = db_->db->Query(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n -> " << r.status().ToString();
    expected_rows.push_back(r->rows.size());
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        // Stagger the starting query per thread so different statements
        // contend for the mutex in every round.
        size_t at = (static_cast<size_t>(t) + round) % sqls.size();
        auto r = db_->db->Query(sqls[at]);
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (r->rows.size() != expected_rows[at]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Proves the statement lock really is shared for SELECT: every reader
// blocks inside a rendezvous UDF until all of them have entered Query().
// Under the old exclusive statement mutex the first reader would hold the
// lock while waiting for readers that can never enter — a guaranteed
// timeout. The 10-second deadline turns that regression into a clean
// failure instead of a hung test binary.
TEST(SharedStatementLockTest, ReadersRunInParallel) {
  auto opened = ordb::Database::Open({});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ordb::Database> db = std::move(*opened);
  ASSERT_TRUE(db->Execute("CREATE TABLE rv (a INTEGER)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO rv VALUES (7)").ok());

  constexpr int kReaders = 4;
  struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
  };
  auto rv = std::make_shared<Rendezvous>();
  ordb::ScalarFunction fn;
  fn.name = "rendezvous";
  fn.return_type = ordb::TypeId::kInteger;
  fn.arity = 1;
  fn.impl =
      [rv](const std::vector<ordb::Value>& args) -> Result<ordb::Value> {
    std::unique_lock<std::mutex> lock(rv->mu);
    ++rv->arrived;
    rv->cv.notify_all();
    if (!rv->cv.wait_for(lock, std::chrono::seconds(10),
                         [&rv] { return rv->arrived >= kReaders; })) {
      return Status::Internal("rendezvous timed out with " +
                              std::to_string(rv->arrived) + "/" +
                              std::to_string(kReaders) +
                              " readers inside Query(): SELECTs are "
                              "serializing instead of sharing the lock");
    }
    return args[0];
  };
  ASSERT_TRUE(db->functions()->RegisterScalar(std::move(fn)).ok());

  std::atomic<int> ok_count{0};
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto r = db->Query("SELECT rendezvous(a) FROM rv");
      if (r.ok() && r->rows.size() == 1) {
        ok_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        errors[t] = r.status().ToString();
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(ok_count.load(), kReaders)
      << "first error: " << errors[0] << errors[1] << errors[2] << errors[3];

  // The shared/exclusive transition still works after the rendezvous:
  // writers (Checkpoint) and further readers interleave cleanly.
  ASSERT_TRUE(db->Checkpoint().ok());
  auto after = db->Query("SELECT a FROM rv");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows.size(), 1u);
}

TEST_F(ConcurrencyTest, CrossThreadCancelStopsALongSelect) {
  // A reader holding the statement lock shared must stay cancellable from
  // another thread: the caller's QueryGuard::Cancel() is a lock-free store
  // that never waits on the statement lock (DESIGN.md section 12). The
  // query projects findKeyInElm over a three-way self cross product —
  // ~370k XADT fragment scans, far too slow to finish before the
  // canceller lands. (The UDF sits in the SELECT list on purpose: a
  // single-table WHERE predicate would be pushed down to one scan and
  // evaluated only once per base row.)
  ordb::QueryGuard guard(0, 0);
  std::thread canceller([&] {
    // Wait until the statement runs (it has polled its guard), then cancel
    // it. The time bound is a safety valve only.
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (guard.Stats().checkpoints == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    guard.Cancel();
  });
  ordb::QueryOptions options;
  options.guard = &guard;
  auto r = xadt_db_->db->Query(
      "SELECT findKeyInElm(s1.speech_line, 'LINE', 'zzznotthere') AS k "
      "FROM speech s1, speech s2, speech s3",
      options);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
  EXPECT_EQ(guard.Stats().stop_code, StatusCode::kCancelled);
  // Graceful degradation: every pin released, and the database is fully
  // usable afterwards.
  EXPECT_EQ(xadt_db_->db->buffer_pool()->PinnedFrameCount(), 0u);
  auto again = xadt_db_->db->Query("SELECT COUNT(*) AS n FROM speech");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(ConcurrencyTest, CancelRacesManyGuardedReaders) {
  // Several guarded readers run while a canceller sprays Cancel() at the
  // guard each reader is on — before its statement starts, while it runs,
  // or after it finished. Every query must end in exactly one of two clean
  // states (finished or kCancelled), with no pins left behind.
  constexpr int kReaders = 4;
  constexpr int kRounds = 6;
  // Every guard outlives both sides of the race.
  std::vector<std::unique_ptr<ordb::QueryGuard>> guards;
  for (int i = 0; i < kReaders * kRounds; ++i) {
    guards.push_back(std::make_unique<ordb::QueryGuard>(0, 0));
  }
  // The round each reader is on; indexes its guard.
  std::atomic<int> round[kReaders] = {};
  std::atomic<int> bad{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        round[t].store(i, std::memory_order_relaxed);
        ordb::QueryOptions options;
        options.guard = guards[t * kRounds + i].get();
        auto r = xadt_db_->db->Query(
            "SELECT findKeyInElm(s1.speech_line, 'LINE', 'zzznotthere') AS k "
            "FROM speech s1, speech s2",
            options);
        if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int t = 0; t < kReaders; ++t) {
        guards[t * kRounds + round[t].load(std::memory_order_relaxed)]
            ->Cancel();
      }
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kReaders; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(xadt_db_->db->buffer_pool()->PinnedFrameCount(), 0u);
}

TEST_F(ConcurrencyTest, ReadersRaceCheckpointAndStats) {
  // Mixed workload: readers plus threads driving the mutating maintenance
  // entry points (Checkpoint is a no-op persistence-wise for memory-backed
  // databases but still walks the buffer pool; RunStats rewrites catalog
  // statistics that the planner reads).
  const std::string sql = benchutil::ShakespeareQueries().front().hybrid_sql;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (!db_->db->Query(sql).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 8; ++i) {
      if (!db_->db->Checkpoint().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 4; ++i) {
      if (!db_->db->RunStats().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xorator
