// Microbenchmarks of the storage substrate (google-benchmark): B+-tree
// inserts/lookups, heap-file inserts/scans, tuple codec, buffer-pool churn,
// XML parsing throughput, and multi-threaded SELECT scaling over the shared
// statement lock. Supporting evidence for DESIGN.md's cost model of the
// higher-level experiments.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/span.h"
#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "common/varint.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/bptree.h"
#include "ordb/buffer_pool.h"
#include "ordb/database.h"
#include "ordb/executor.h"
#include "ordb/heap_file.h"
#include "ordb/pager.h"
#include "ordb/planner.h"
#include "ordb/query_guard.h"
#include "ordb/row_codec.h"
#include "ordb/tuple.h"
#include "xadt/functions.h"
#include "xadt/xadt.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::ordb {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    MemoryPager pager;
    BufferPool pool(&pager, 8192);
    auto tree = BPlusTree::Create(&pool);
    std::mt19937_64 rng(42);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(tree->Insert(rng(), i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000)->Arg(100000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  MemoryPager pager;
  BufferPool pool(&pager, 8192);
  auto tree = BPlusTree::Create(&pool);
  std::mt19937_64 rng(42);
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < state.range(0); ++i) {
    keys.push_back(rng());
    XO_DISCARD_STATUS(tree->Insert(keys.back(), i),
                      "setup over a MemoryPager with ample pool capacity; an "
                      "insert failure would only shrink the lookup key set");
  }
  size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Find(keys[at++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(100000);

void BM_HeapFileInsert(benchmark::State& state) {
  std::string record(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    state.PauseTiming();
    MemoryPager pager;
    BufferPool pool(&pager, 8192);
    auto file = HeapFile::Create(&pool);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(file->Insert(record));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HeapFileInsert)->Arg(64)->Arg(512);

void BM_HeapFileScan(benchmark::State& state) {
  MemoryPager pager;
  BufferPool pool(&pager, 8192);
  auto file = HeapFile::Create(&pool);
  std::string record(128, 'r');
  for (int i = 0; i < 50000; ++i) {
    XO_DISCARD_STATUS(file->Insert(record),
                      "setup over a MemoryPager with ample pool capacity; a "
                      "failed insert only shortens the scanned file");
  }
  for (auto _ : state) {
    auto scanner = file->Scan();
    Rid rid;
    std::string rec;
    int64_t count = 0;
    while (*scanner.Next(&rid, &rec)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_HeapFileScan);

void BM_TupleCodec(benchmark::State& state) {
  TableSchema schema;
  schema.columns = {{"id", TypeId::kInteger},
                    {"parent", TypeId::kInteger},
                    {"order", TypeId::kInteger},
                    {"value", TypeId::kVarchar}};
  Tuple tuple = {Value::Int(12345), Value::Int(678), Value::Int(3),
                 Value::Varchar("But soft what light through yonder window")};
  for (auto _ : state) {
    std::string bytes;
    EncodeTuple(schema, tuple, &bytes);
    auto decoded = DecodeTuple(schema, bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleCodec);

// The copying row decoder the zero-copy data plane replaced (DESIGN.md
// section 14), preserved verbatim as BM_RowDecode's baseline arm: a fresh
// Tuple per row, a heap std::string copy per string column, and a Value
// factory call per column. DecodeTuple itself now parses through RowView
// and materializes in place, so this is the only remaining copy of the old
// behaviour.
Result<Tuple> DecodeTupleCopying(const TableSchema& schema,
                                 std::string_view bytes) {
  size_t n = schema.columns.size();
  size_t bitmap_bytes = (n + 7) / 8;
  if (bytes.size() < bitmap_bytes) {
    return Status::Internal("tuple shorter than its null bitmap");
  }
  Tuple tuple;
  tuple.reserve(n);
  size_t pos = bitmap_bytes;
  for (size_t i = 0; i < n; ++i) {
    bool null = (static_cast<uint8_t>(bytes[i / 8]) >> (i % 8)) & 1;
    if (null) {
      tuple.push_back(Value::Null());
      continue;
    }
    switch (schema.columns[i].type) {
      case TypeId::kBoolean: {
        if (bytes.size() - pos < 1) {
          return Status::Internal("truncated boolean in tuple");
        }
        tuple.push_back(Value::Bool(bytes[pos] != 0));
        pos += 1;
        break;
      }
      case TypeId::kInteger: {
        if (bytes.size() - pos < 8) {
          return Status::Internal("truncated integer in tuple");
        }
        tuple.push_back(Value::Int(xo::LoadFixedUnchecked<int64_t>(bytes, pos)));
        pos += 8;
        break;
      }
      case TypeId::kDouble: {
        if (bytes.size() - pos < 8) {
          return Status::Internal("truncated double in tuple");
        }
        tuple.push_back(Value::Double(xo::LoadFixedUnchecked<double>(bytes, pos)));
        pos += 8;
        break;
      }
      case TypeId::kVarchar:
      case TypeId::kXadt: {
        XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes, &pos));
        if (len > bytes.size() - pos) {
          return Status::Internal("truncated string in tuple");
        }
        std::string s(bytes.substr(pos, len));
        pos += len;
        tuple.push_back(schema.columns[i].type == TypeId::kVarchar
                            ? Value::Varchar(std::move(s))
                            : Value::Xadt(std::move(s)));
        break;
      }
      case TypeId::kNull:
        tuple.push_back(Value::Null());
        break;
    }
  }
  return tuple;
}

// Copy vs in-place decode of one representative element-table record: two
// ids, a flag, a score, a short tag, and a ~300-byte XADT fragment — the
// row shape every scan operator decodes per heap-file record. The copying
// arm is DecodeTupleCopying above; the in-place arm is what the executor
// does now: RowView::Parse over the record buffer, then Materialize into a
// Tuple whose Values are reused across rows (string capacity recycled by
// the in-place setters, so the steady state allocates nothing).
void BM_RowDecode(benchmark::State& state) {
  TableSchema schema;
  schema.columns = {{"id", TypeId::kInteger},
                    {"parent", TypeId::kInteger},
                    {"live", TypeId::kBoolean},
                    {"score", TypeId::kDouble},
                    {"tag", TypeId::kVarchar},
                    {"frag", TypeId::kXadt}};
  std::string frag = "<SPEECH>";
  for (int l = 0; l < 5; ++l) {
    frag += "<LINE>but soft what light through yonder window breaks</LINE>";
  }
  frag += "</SPEECH>";
  Tuple row = {Value::Int(12345),       Value::Int(678),
               Value::Bool(true),       Value::Double(3.25),
               Value::Varchar("LINE"),  Value::Xadt(frag)};
  std::string bytes;
  EncodeTuple(schema, row, &bytes);
  const bool in_place = state.range(0) != 0;
  Tuple reused;
  for (auto _ : state) {
    if (in_place) {
      auto view = RowView::Parse(schema, bytes);
      if (!view.ok()) {
        state.SkipWithError(view.status().ToString().c_str());
        return;
      }
      view->Materialize(&reused);
      benchmark::DoNotOptimize(reused);
    } else {
      auto decoded = DecodeTupleCopying(schema, bytes);
      if (!decoded.ok()) {
        state.SkipWithError(decoded.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(*decoded);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowDecode)->ArgName("inplace")->Arg(0)->Arg(1);

// The page checksum alone: one 8188-byte payload, the bytes every buffer-pool
// miss verifies and every write-back stamps (ComputePageChecksum). Compare
// with BM_BufferPoolChurn, whose misses each pay this once.
void BM_Crc32Page(benchmark::State& state) {
  std::vector<unsigned char> payload(kPageSize - sizeof(uint32_t));
  std::mt19937 rng(11);
  for (auto& b : payload) b = static_cast<unsigned char>(rng() & 0xFFu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32Page);

// The PageRef guard must be free in Release builds: the pin/unpin work is
// identical and the guard's bookkeeping (two pointers, an id, a bool) stays
// in registers — provided the guard's release path and the Fetch()/Create()
// wrappers are header-inline (an early out-of-line version cost hot-cache
// lookups ~10%). Measured raw-API vs guard binaries interleaved on the same
// machine (RelWithDebInfo, g++ 12, MemoryPager; median of 3 runs):
//   BM_BufferPoolChurn        raw 18430 ns   guard 18511 ns   (noise)
//   BM_BPlusTreeLookup/100000 raw   293 ns   guard   289 ns   (noise)
void BM_BufferPoolChurn(benchmark::State& state) {
  MemoryPager pager;
  BufferPool pool(&pager, 64);  // smaller than the working set
  std::vector<PageId> pages;
  for (int i = 0; i < 256; ++i) {
    auto p = pool.Create();
    if (!p.ok()) {
      state.SkipWithError("page allocation failed during setup");
      return;
    }
    pages.push_back(p->id());
    if (!p->Release().ok()) {
      state.SkipWithError("unbalanced release during setup");
      return;
    }
  }
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    PageId id = pages[rng() % pages.size()];
    auto frame = pool.Fetch(id);
    benchmark::DoNotOptimize(frame);
    // The guard in `frame` unpins when it goes out of scope here.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolChurn);

// Shard contention in the buffer pool (DESIGN.md section 15): every
// benchmark thread hammers Fetch/Unpin on resident pages. With
// `disjoint:1` each thread's pages all hash to its own bucket, so under
// the sharded pool the threads touch disjoint latches and never contend;
// with `disjoint:0` every page hashes to bucket 0 and all threads fight
// over one latch — the pre-shard single-`mu_` behaviour reproduced on
// demand. The gap between the two arms (and between `disjoint:1` here
// and the single-latch baseline recorded in BENCH_engine_micro.json) is
// the direct measure of what the shard split buys.
void BM_DisjointPageFetch(benchmark::State& state) {
  // Shared across all benchmark threads and deliberately leaked, same
  // reasoning as BM_ConcurrentReaders below.
  struct Shared {
    MemoryPager pager;
    BufferPool pool{&pager, 128};  // 16 buckets, all pages resident
    std::vector<PageId> pages;
  };
  static Shared* shared = [] {
    auto* s = new Shared();
    for (int i = 0; i < 128; ++i) {
      auto p = s->pool.Create();
      if (!p.ok()) return static_cast<Shared*>(nullptr);
      const PageId id = p->id();
      if (!p->Release().ok()) return static_cast<Shared*>(nullptr);
      s->pages.push_back(id);
    }
    if (!s->pool.FlushAll().ok()) return static_cast<Shared*>(nullptr);
    return s;
  }();
  if (shared == nullptr) {
    state.SkipWithError("pool setup failed");
    return;
  }
  const bool disjoint = state.range(0) != 0;
  const size_t buckets = shared->pool.bucket_count();
  // disjoint:1 — thread t's pages satisfy id % buckets == t % buckets.
  // disjoint:0 — everyone's pages satisfy id % buckets == 0.
  std::vector<PageId> mine;
  for (PageId id : shared->pages) {
    const size_t want = disjoint
                            ? static_cast<size_t>(state.thread_index()) % buckets
                            : 0;
    if (id % buckets == want) mine.push_back(id);
  }
  size_t next = 0;
  for (auto _ : state) {
    auto frame = shared->pool.Fetch(mine[next]);
    if (!frame.ok()) {
      state.SkipWithError("fetch failed");
      return;
    }
    benchmark::DoNotOptimize(*frame);
    next = (next + 1) % mine.size();
    // The guard unpins as `frame` dies here.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DisjointPageFetch)
    ->ArgName("disjoint")
    ->Arg(1)
    ->Arg(0)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// Read-side scaling of the statement lock (DESIGN.md section 10): the same
// indexed point SELECT from 1..8 threads against one shared database.
// SELECT takes the statement lock shared, so items/sec should grow with
// the thread count (bounded by cores); a flat curve here would mean the
// read path has re-serialized.
void BM_ConcurrentReaders(benchmark::State& state) {
  // One database shared by every benchmark thread, built by thread 0 and
  // deliberately leaked: google-benchmark gives no hook that runs after
  // the last thread exits but before the process does, and a static would
  // checkpoint during shutdown — pure noise for a memory-backed database.
  static Database* db = [] {
    auto opened = Database::Open({});
    if (!opened.ok()) return static_cast<Database*>(nullptr);
    auto* raw = opened->release();
    Status setup = raw->Execute("CREATE TABLE r (a INTEGER, b VARCHAR)");
    for (int i = 0; setup.ok() && i < 64; ++i) {
      setup = raw->Execute("INSERT INTO r VALUES (" + std::to_string(i) +
                           ", 'row" + std::to_string(i) + "')");
    }
    if (setup.ok()) setup = raw->Execute("CREATE INDEX ri ON r (a)");
    if (setup.ok()) setup = raw->RunStats();
    return setup.ok() ? raw : static_cast<Database*>(nullptr);
  }();
  if (db == nullptr) {
    state.SkipWithError("shared database setup failed");
    return;
  }
  const std::string sql =
      "SELECT b FROM r WHERE a = " + std::to_string(state.thread_index() * 7);
  for (auto _ : state) {
    auto r = db->Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentReaders)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Cost of the query guardrails (DESIGN.md section 12): the same full-table
// aggregate scan with and without a QueryGuard attached. The guarded run
// pays one CheckPoint() per row in the scan and one in the aggregate's
// drain — a relaxed atomic increment, with the monotonic clock read only
// every 32nd poll. The target is curves within 2% of each other; measured
// with --benchmark_enable_random_interleaving, 10 repetitions, over 10 runs
// (RelWithDebInfo, g++ 12, 4-CPU host, 20000-row scan), the median
// guarded/unguarded ratio per run is 1.048, so the target is not met.
void BM_GuardOverhead(benchmark::State& state) {
  // Shared across both arms and deliberately leaked, same reasoning as
  // BM_ConcurrentReaders above.
  static Database* db = [] {
    auto opened = Database::Open({});
    if (!opened.ok()) return static_cast<Database*>(nullptr);
    auto* raw = opened->release();
    Status setup = raw->Execute("CREATE TABLE g (a INTEGER, b VARCHAR)");
    std::vector<Tuple> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value::Int(i), Value::Varchar("payload-row")});
    }
    if (setup.ok()) setup = raw->BulkInsert("g", rows);
    return setup.ok() ? raw : static_cast<Database*>(nullptr);
  }();
  if (db == nullptr) {
    state.SkipWithError("shared database setup failed");
    return;
  }
  const bool guarded = state.range(0) != 0;
  for (auto _ : state) {
    // One guard per statement, built by both arms so that they differ only
    // in whether the statement polls it. Its deadline is active and never
    // trips.
    QueryGuard guard(3'600'000, 0);
    QueryOptions options;
    options.guard = &guard;
    auto r = guarded ? db->Query("SELECT COUNT(*) AS n FROM g", options)
                     : db->Query("SELECT COUNT(*) AS n FROM g");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->rows);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_GuardOverhead)->ArgName("guarded")->Arg(0)->Arg(1);

// Cancellation latency: the wall time from the victim's QueryGuard::Cancel()
// to the victim SELECT actually surfacing kCancelled. Bounded by the checkpoint
// cadence — one poll per operator row, the clock read every 32nd poll — so
// this should sit in microseconds, not milliseconds (1.5 us median on a
// 4-CPU x86-64 host; BENCH_engine_micro.json, caller_owned_guard).
void BM_CancelLatency(benchmark::State& state) {
  static Database* db = [] {
    auto opened = Database::Open({});
    if (!opened.ok()) return static_cast<Database*>(nullptr);
    auto* raw = opened->release();
    Status setup = raw->Execute("CREATE TABLE c (a INTEGER)");
    std::vector<Tuple> rows;
    for (int i = 0; i < 2000; ++i) rows.push_back({Value::Int(i)});
    if (setup.ok()) setup = raw->BulkInsert("c", rows);
    return setup.ok() ? raw : static_cast<Database*>(nullptr);
  }();
  if (db == nullptr) {
    state.SkipWithError("shared database setup failed");
    return;
  }
  std::atomic<bool> victim_survived{false};
  for (auto _ : state) {
    // Nanoseconds-since-epoch of the moment Query() returned, written by
    // the victim thread right before it exits.
    std::atomic<int64_t> done_ns{0};
    QueryGuard guard(0, 0);
    std::thread victim([&] {
      QueryOptions options;
      options.guard = &guard;
      // A three-way cross product (8e9 rows): never finishes on its own.
      auto r = db->Query("SELECT COUNT(*) AS n FROM c c1, c c2, c c3",
                         options);
      done_ns.store(std::chrono::steady_clock::now().time_since_epoch()
                        .count(),
                    std::memory_order_release);
      if (r.status().code() != StatusCode::kCancelled) {
        victim_survived.store(true, std::memory_order_relaxed);
      }
    });
    // Cancel once the victim runs (it has polled its guard), so the timing
    // covers a statement in flight; the stop is latched from here on.
    while (guard.Stats().checkpoints == 0) std::this_thread::yield();
    guard.Cancel();
    const int64_t t0 =
        std::chrono::steady_clock::now().time_since_epoch().count();
    victim.join();
    const int64_t t1 = done_ns.load(std::memory_order_acquire);
    state.SetIterationTime(t1 > t0 ? static_cast<double>(t1 - t0) * 1e-9
                                   : 0.0);
  }
  if (victim_survived.load()) {
    state.SkipWithError("a victim query ended in something other than "
                        "kCancelled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CancelLatency)->UseManualTime();

// 512 speeches of six LINEs each in one XADT column (every 16th with a
// STAGEDIR), shared by the Fig. 11 scan and the unnest benchmarks below.
// Deliberately leaked, same reasoning as BM_ConcurrentReaders.
Database* SpeechDb() {
  static Database* db = [] {
    auto opened = Database::Open({});
    if (!opened.ok()) return static_cast<Database*>(nullptr);
    auto* raw = opened->release();
    Status setup = xadt::RegisterXadtFunctions(raw->functions());
    if (setup.ok()) {
      setup =
          raw->Execute("CREATE TABLE speech (id INTEGER, speech_line XADT)");
    }
    for (int i = 0; setup.ok() && i < 512; ++i) {
      std::string doc = "<SPEECH>";
      for (int l = 0; l < 6; ++l) {
        doc += "<LINE>but soft what light through yonder window breaks";
        // Every 16th speech carries the stage direction QS3 looks for.
        if (l == 0 && i % 16 == 0) doc += "<STAGEDIR>Rising</STAGEDIR>";
        doc += "</LINE>";
      }
      doc += "</SPEECH>";
      setup = raw->Execute("INSERT INTO speech VALUES (" + std::to_string(i) +
                           ", '" + doc + "')");
    }
    return setup.ok() ? raw : static_cast<Database*>(nullptr);
  }();
  return db;
}

// Runs `sql` on SpeechDb() once per iteration, expecting `rows` rows.
void RunSpeechQuery(benchmark::State& state, const std::string& sql,
                    size_t rows) {
  Database* db = SpeechDb();
  if (db == nullptr) {
    state.SkipWithError("shared database setup failed");
    return;
  }
  for (auto _ : state) {
    auto r = db->Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    if (r->rows.size() != rows) {
      state.SkipWithError("unexpected result cardinality");
      return;
    }
    benchmark::DoNotOptimize(r->rows);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}

// One Fig. 11 query end to end: the XORator form of QS3 ("lines with the
// keyword 'Rising' in the text of the stage direction") — a sequential scan
// whose filter calls findKeyInElm and whose projection calls getElm on an
// XADT column. This is the decode-path-bound query shape: every row is
// fetched from the heap file, decoded, and its XADT payload streamed, so
// it tracks the scan/decode improvements the row codec targets. Measured
// on the same machine before and after the switch to the zero-copy plane
// (same build config, median of 3 runs; see also BM_RowDecode above):
//   before (copying DecodeTuple + per-row Tuple)  947 us
//   after  (RowView recheck + in-place decode)    720 us   (~1.3x)
void BM_Fig11Qs3Scan(benchmark::State& state) {
  RunSpeechQuery(state,
                 "SELECT getElm(speech_line, 'LINE', 'STAGEDIR', 'Rising') "
                 "FROM speech "
                 "WHERE findKeyInElm(speech_line, 'STAGEDIR', 'Rising') = 1",
                 32);
}
BENCHMARK(BM_Fig11Qs3Scan);

// The flattening half of QS1: one row per LINE of every speech_line value,
// the way XORator's QS1 reads it (only `out`). Items are speeches.
void BM_UnnestLines(benchmark::State& state) {
  RunSpeechQuery(state,
                 "SELECT l.out FROM speech, "
                 "table(unnest(speech_line, 'LINE')) l",
                 512 * 6);
}
BENCHMARK(BM_UnnestLines);

// The yardstick for BM_UnnestLines: one findKeyInElm pass over the same
// values, with a key that never matches so every value is read to its end.
void BM_FindKeyLines(benchmark::State& state) {
  RunSpeechQuery(state,
                 "SELECT id FROM speech "
                 "WHERE findKeyInElm(speech_line, 'LINE', 'Juliet') = 1",
                 0);
}
BENCHMARK(BM_FindKeyLines);

// The compressed XADT values XORator stores for SIGMOD proceedings: every
// sList's sListTuple children, encoded the way the loader picks for them
// (the pp_slist column of the Fig. 13 queries). 40 documents, ~60 KB.
const std::vector<std::string>& SigmodSlists() {
  static const std::vector<std::string>* values = [] {
    auto* out = new std::vector<std::string>;
    datagen::SigmodOptions options;
    options.documents = 40;
    options.seed = 1;
    datagen::SigmodGenerator gen(options);
    for (int i = 0; i < options.documents; ++i) {
      std::unique_ptr<xml::Node> pp = gen.GenerateProceedings(i);
      for (const xml::Node* slist : pp->ChildElements("sList")) {
        out->push_back(
            xadt::EncodeCompressed(slist->ChildElements("sListTuple")));
      }
    }
    return out;
  }();
  return *values;
}

// Runs `method` over every SigmodSlists() value per iteration, unguarded
// as a statement without limits runs it, and reports the bytes scanned.
template <typename Method>
void ScanSlists(benchmark::State& state, Method method) {
  const std::vector<std::string>& values = SigmodSlists();
  int64_t bytes = 0;
  for (const std::string& v : values) bytes += static_cast<int64_t>(v.size());
  for (auto _ : state) {
    for (const std::string& v : values) {
      bool as_expected = method(v);
      benchmark::DoNotOptimize(as_expected);
      if (!as_expected) {
        state.SkipWithError("XADT method failed or matched");
        return;
      }
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}

// findKeyInElm as QG1 filters with it, with a key no title holds, so every
// token of every value is read.
void BM_FindKeyCompressed(benchmark::State& state) {
  ScanSlists(state, [](const std::string& v) {
    auto found = xadt::FindKeyInElm(v, "title", "Zebra");
    return found.ok() && *found == 0;
  });
}
BENCHMARK(BM_FindKeyCompressed);

// getElm as QG1 projects with it, with the same never-matching key.
void BM_GetElmCompressed(benchmark::State& state) {
  ScanSlists(state, [](const std::string& v) {
    auto got = xadt::GetElm(v, "aTuple", "title", "Zebra");
    // No match leaves only the value's dictionary header.
    return got.ok() && v.starts_with(*got);
  });
}
BENCHMARK(BM_GetElmCompressed);

void BM_XmlParse(benchmark::State& state) {
  std::string doc = "<SPEECH>";
  for (int i = 0; i < 32; ++i) {
    doc += "<LINE>but soft what light through yonder window breaks</LINE>";
  }
  doc += "</SPEECH>";
  for (auto _ : state) {
    auto parsed = xml::ParseDocument(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlParse);

// Replays rows kept in memory: an operator input without storage.
class ValuesOp : public Operator {
 public:
  ValuesOp(std::vector<ColumnMeta> columns, const std::vector<Tuple>* rows)
      : rows_(rows) {
    columns_ = std::move(columns);
  }
  Status DoOpen() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    RETURN_IF_ERROR(CheckPoint());
    if (pos_ >= rows_->size()) return false;
    *out = (*rows_)[pos_++];
    return true;
  }
  std::string Label() const override { return "Values"; }

 private:
  const std::vector<Tuple>* rows_;
  size_t pos_ = 0;
};

// Executor state alone (DESIGN.md §20): the operators that keep rows, over
// in-memory inputs of 60,000 rows, unguarded as the workloads run them.
//   op:0  hash join: 20,000 build rows (id, parent, 16-byte name), each
//         probed by 3 of the 60,000 (parent, id) probe rows
//   op:1  GROUP BY an author-like VARCHAR over 5,000 values, COUNT(*):
//         QG4's shape
//   op:2  sort on the same VARCHAR
// Items are input rows.
void BM_OperatorState(benchmark::State& state) {
  constexpr int kBuild = 20000;
  constexpr int kRows = 60000;
  std::mt19937_64 rng(33);
  std::vector<Tuple> build;
  for (int i = 0; i < kBuild; ++i) {
    build.push_back({Value::Int(i), Value::Int(i / 4),
                     Value::Varchar("name-" + std::to_string(1000000 + i) +
                                    "-xx")});
  }
  std::vector<Tuple> probe;
  std::vector<Tuple> authors;
  for (int i = 0; i < kRows; ++i) {
    probe.push_back({Value::Int(static_cast<int64_t>(rng() % kBuild)),
                     Value::Int(i)});
    authors.push_back(
        {Value::Varchar("author-" + std::to_string(10000 + rng() % 5000)),
         Value::Int(i)});
  }
  auto values = [](const std::vector<Tuple>& rows, size_t width) {
    std::vector<ColumnMeta> columns(width, {"c", TypeId::kInteger});
    return std::make_unique<ValuesOp>(std::move(columns), &rows);
  };
  auto key = [](size_t column, TypeId type) {
    std::vector<ExprPtr> keys;
    keys.push_back(std::make_unique<ColumnRefExpr>(column, "c", type));
    return keys;
  };
  OperatorPtr op;
  size_t input_rows = kRows;
  switch (state.range(0)) {
    case 0:
      op = std::make_unique<HashJoinOp>(
          values(build, 3), values(probe, 2), key(0, TypeId::kInteger),
          key(0, TypeId::kInteger));
      input_rows = kBuild + kRows;
      state.SetLabel("hash join");
      break;
    case 1: {
      std::vector<AggregateSpec> aggs(1);
      aggs[0].name = "n";
      op = std::make_unique<AggregateOp>(
          values(authors, 2), key(0, TypeId::kVarchar),
          std::vector<std::string>{"author"}, std::move(aggs));
      state.SetLabel("group by");
      break;
    }
    default:
      op = std::make_unique<SortOp>(values(authors, 2),
                                    key(0, TypeId::kVarchar),
                                    std::vector<bool>{true});
      state.SetLabel("sort");
      break;
  }
  Tuple row;
  for (auto _ : state) {
    Status status = op->Open();
    size_t out = 0;
    while (status.ok()) {
      Result<bool> more = op->Next(&row);
      if (!more.ok()) status = more.status();
      if (!more.ok() || !*more) break;
      ++out;
    }
    op->Close();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input_rows));
}
BENCHMARK(BM_OperatorState)
    ->ArgName("op")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// A small database of one mapping (2 plays, 40 proceedings documents) and
// the paper statements in its dialect (Fig. 11 or Fig. 13).
struct PaperDb {
  benchutil::ExperimentDb db;
  std::vector<std::string> queries;
};

// The four paper databases, each with its ID indexes and statistics, and
// with the advisor's indexes for its statements when `advised`.
Result<std::vector<PaperDb>> BuildPaperDbs(bool advised) {
  datagen::ShakespeareOptions plays;
  plays.plays = 2;
  datagen::SigmodOptions proceedings;
  proceedings.documents = 40;
  const auto shakespeare = datagen::ShakespeareGenerator(plays).GenerateCorpus();
  const auto sigmod = datagen::SigmodGenerator(proceedings).GenerateCorpus();
  struct Set {
    const char* dtd;
    const std::vector<std::unique_ptr<xml::Node>>* corpus;
    const std::vector<benchutil::PaperQuery>* queries;
  };
  std::vector<PaperDb> dbs;
  for (const Set& set :
       {Set{datagen::kShakespeareDtd, &shakespeare,
            &benchutil::ShakespeareQueries()},
        Set{datagen::kSigmodDtd, &sigmod, &benchutil::SigmodQueries()}}) {
    std::vector<const xml::Node*> docs;
    for (const auto& d : *set.corpus) docs.push_back(d.get());
    for (benchutil::Mapping mapping :
         {benchutil::Mapping::kHybrid, benchutil::Mapping::kXorator}) {
      const bool hybrid = mapping == benchutil::Mapping::kHybrid;
      std::vector<std::string> queries;
      for (const benchutil::PaperQuery& q : *set.queries) {
        queries.push_back(hybrid ? q.hybrid_sql : q.xorator_sql);
      }
      benchutil::ExperimentOptions options;
      options.mapping = mapping;
      if (advised) options.advisor_queries = queries;
      XO_ASSIGN_OR_RETURN(benchutil::ExperimentDb db,
                          benchutil::BuildExperimentDb(set.dtd, docs, options));
      dbs.push_back({std::move(db), std::move(queries)});
    }
  }
  return dbs;
}

// The indexes the advisor builds on the paper databases beside the ID
// indexes, in BuildPaperDbs order (Shakespeare Hybrid, XORator, SIGMOD
// Hybrid, XORator), written out so that an advisor change cannot move
// BM_PlanPaperQueries.
const std::vector<std::pair<const char*, const char*>> kPlannedIndexes[] = {
    {{"line", "line_parentID"},
     {"speaker", "speaker_value"},
     {"speech", "speech_parentCODE"},
     {"stagedir", "stagedir_parentCODE"}},
    {{"speech", "speech_parentCODE"},
     {"speech", "speech_parentID"},
     {"scene", "scene_parentID"},
     {"act", "act_parentID"}},
    {{"author", "author_parentID"},
     {"authors", "authors_parentID"},
     {"atuple", "atuple_parentID"}},
    {},
};

// The planner alone: the 24 paper statements, parsed once, planned on the
// paper databases with the kPlannedIndexes. No parse, no execution, no
// EXPLAIN rendering. Items are statements planned.
void BM_PlanPaperQueries(benchmark::State& state) {
  auto dbs = BuildPaperDbs(/*advised=*/false);
  if (!dbs.ok()) {
    state.SkipWithError(dbs.status().ToString().c_str());
    return;
  }
  for (size_t i = 0; i < dbs->size(); ++i) {
    for (const auto& [table, column] : kPlannedIndexes[i]) {
      const Status s = (*dbs)[i].db.db->CreateIndex(table, column);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
  }
  std::vector<std::vector<sql::Statement>> statements;
  for (const PaperDb& p : *dbs) {
    statements.emplace_back();
    for (const std::string& sql : p.queries) {
      auto stmt = sql::ParseSql(sql);
      if (!stmt.ok()) {
        state.SkipWithError(stmt.status().ToString().c_str());
        return;
      }
      statements.back().push_back(std::move(*stmt));
    }
  }
  int64_t planned = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < dbs->size(); ++i) {
      Database* db = (*dbs)[i].db.db.get();
      Planner planner(db->catalog(), db->functions(), db->options().planner);
      for (const sql::Statement& s : statements[i]) {
        auto plan = planner.PlanSelect(s.select);
        if (!plan.ok()) {
          state.SkipWithError(plan.status().ToString().c_str());
          return;
        }
        benchmark::DoNotOptimize(plan);
        ++planned;
      }
    }
  }
  state.SetItemsProcessed(planned);
}
BENCHMARK(BM_PlanPaperQueries)->Unit(benchmark::kMicrosecond);

// The index advisor over the same 24 statements: one iteration advises the
// four paper databases, built unadvised outside the timed region (each
// advice builds indexes, so every iteration needs fresh databases). The
// time is the what-if planning plus the backfill of the chosen indexes.
// Items are statements advised.
void BM_AdvisePaperQueries(benchmark::State& state) {
  std::vector<PaperDb> dbs;
  int64_t advised = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto built = BuildPaperDbs(/*advised=*/false);
    if (built.ok()) dbs = std::move(*built);
    state.ResumeTiming();
    if (!built.ok()) {
      state.SkipWithError(built.status().ToString().c_str());
      return;
    }
    for (PaperDb& p : dbs) {
      const Status s = p.db.db->AdviseIndexes(p.queries);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
      advised += static_cast<int64_t>(p.queries.size());
    }
  }
  state.SetItemsProcessed(advised);
}
BENCHMARK(BM_AdvisePaperQueries)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xorator::ordb

// Hand-rolled BENCHMARK_MAIN with one extra convenience flag:
//
//   --json[=path]   emit results as google-benchmark JSON (default path
//                   BENCH_engine_micro.json in the current directory) while
//                   keeping the human-readable console table on stdout.
//
// The flag is sugar for --benchmark_out=<path> --benchmark_out_format=json,
// so the emitted file is the standard benchmark schema and any explicit
// --benchmark_* flags still work alongside it.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc) + 2);
  bool json = false;
  std::string json_path = "BENCH_engine_micro.json";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(std::string("--json=").size());
    } else {
      args.push_back(arg);
    }
  }
  if (json) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
