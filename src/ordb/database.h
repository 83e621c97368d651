#ifndef XORATOR_ORDB_DATABASE_H_
#define XORATOR_ORDB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <optional>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "ordb/buffer_pool.h"
#include "ordb/catalog.h"
#include "ordb/fault_pager.h"
#include "ordb/functions.h"
#include "ordb/health.h"
#include "ordb/pager.h"
#include "ordb/planner.h"
#include "ordb/query_guard.h"
#include "ordb/wal.h"

namespace xorator::ordb {

/// Database configuration.
struct DbOptions {
  /// Path of the database file; empty means a memory-backed pager.
  std::string path;
  /// Buffer pool capacity in pages (default 64 MB of 8 KB pages).
  size_t buffer_pool_pages = 8192;
  PlannerOptions planner;
  /// When set, the pager is wrapped in a FaultInjectingPager driving the
  /// given deterministic fault schedule (testing only).
  std::optional<FaultOptions> fault;
};

/// Per-statement resource limits and cancellation identity (DESIGN.md
/// §12). All fields default to "off"; a default-constructed QueryOptions
/// runs the statement unguarded with zero overhead.
struct QueryOptions {
  /// Wall-clock budget in milliseconds from the moment Query() is called
  /// (steady clock). 0 means no deadline. A statement past its deadline
  /// unwinds at its next guard checkpoint with kDeadlineExceeded.
  uint64_t deadline_millis = 0;
  /// Byte budget for tracked materializations (join/sort/aggregate state,
  /// decoded XADT fragments). 0 means no budget. Tripping it returns
  /// kResourceExhausted.
  uint64_t max_memory_bytes = 0;
  /// Caller-chosen identity for Database::Cancel(). 0 means "not
  /// cancellable by id" (the statement still honors the other limits).
  /// The id is registered before the statement lock is taken, so even a
  /// query waiting behind a writer is already cancellable.
  uint64_t query_id = 0;

  /// Degraded-scan mode (DESIGN.md §13): SELECTs skip quarantined/corrupt
  /// heap pages and damaged overflow/XADT fragments instead of failing,
  /// and count what they skipped in QueryResult::report.
  /// Off by default: normal queries must surface corruption.
  bool skip_quarantined = false;

  /// True when any limit or the cancel identity is set — i.e. the
  /// statement needs a QueryGuard at all (skip_quarantined alone does not:
  /// it changes scan behavior, not resource governance).
  bool guarded() const {
    return deadline_millis != 0 || max_memory_bytes != 0 || query_id != 0;
  }
};

/// What a SELECT or EXPLAIN observed besides its rows (DESIGN.md §12–13).
/// Facts, not text: ToString() renders them only when asked (EXPLAIN, the
/// wire's RESULT frame).
struct StatementReport {
  /// The guard's counters; set when the statement ran guarded.
  std::optional<GuardStats> guard;
  /// Engine health and quarantined pool pages when a SELECT finished
  /// (EXPLAIN runs nothing and leaves them at their defaults).
  HealthState health = HealthState::kHealthy;
  uint64_t quarantined_pages = 0;
  /// What the scans skipped; set when the statement ran with
  /// QueryOptions::skip_quarantined.
  std::optional<DegradedScan> degraded;

  /// The "guard: ..." line when `guard` is set, then the "resilience: ..."
  /// line when the statement skipped or the engine is not clean (not
  /// healthy, or quarantined pages), joined by newlines; empty otherwise.
  std::string ToString() const;
};

/// Materialized result of a query.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;
  /// Snapshot of the UDF accounting for this query.
  UdfStats udf_stats;
  /// Guard and resilience facts of a SELECT or EXPLAIN.
  StatementReport report;

  /// Plain-text rendering (column header + one line per row).
  std::string ToString(size_t max_rows = 20) const;
};

/// The embedded object-relational engine: storage, catalog, SQL, UDFs.
///
/// Typical use:
///   auto db = Database::Open({});
///   db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)");
///   db->Execute("INSERT INTO t VALUES (1, 'x')");
///   auto result = db->Query("SELECT a FROM t WHERE b = 'x'");
///
/// Thread safety: the statement-level entry points synchronize on an
/// internal reader/writer statement lock (statically checked via Clang
/// Thread Safety Analysis; see DESIGN.md section 10). Read-only statements
/// — SELECT and EXPLAIN via Query/Execute/Explain — take the lock shared
/// and run genuinely in parallel. Statements that mutate state (DDL,
/// INSERT, DELETE, BulkInsert, Checkpoint, RunStats, AdviseIndexes, Close)
/// take it exclusively and serialize against everything else. Concurrent
/// readers are safe because every component they touch is internally
/// synchronized (BufferPool, Wal, Catalog registry) or only mutated under
/// the exclusive lock (heap/index structure, table statistics). The raw
/// component accessors (catalog(), buffer_pool(), wal(), ...) return
/// internally synchronized objects, but orchestrating multi-step work
/// through them (as the loader does) must happen on one thread or under
/// application-level exclusion — they bypass the statement lock.
///
/// Guardrails: the Query/Execute overloads taking QueryOptions run the
/// statement under a QueryGuard (deadline, cancel token, memory budget —
/// DESIGN.md section 12). Cancel(query_id) stops a registered in-flight
/// statement from any thread; it synchronizes only on the guard registry
/// (guards_mu_, a leaf lock), so a reader holding the statement lock
/// shared — or still queued behind a writer — remains cancellable.
class Database {
 public:
  /// Opens (creating or recovering) a database. For file-backed databases
  /// this first rolls back any interrupted epoch via the write-ahead log
  /// (see wal.h), then reloads the catalog from the meta page; the last
  /// Checkpoint() is the state that survives a crash.
  [[nodiscard]] static Result<std::unique_ptr<Database>> Open(
      const DbOptions& options = {});

  /// Checkpoints (best effort) unless Close() or Kill() was called. A
  /// failed implicit checkpoint cannot be returned, so it is recorded in
  /// last_close_status() and logged to stderr instead of being swallowed.
  ~Database();

  /// Makes the current state durable: persists the catalog to the meta
  /// page, flushes every dirty buffer, and truncates the WAL (the atomic
  /// commit point). No-op persistence-wise for memory-backed databases.
  [[nodiscard]] Status Checkpoint() XO_EXCLUDES(mu_);

  /// Checkpoints and marks the database closed.
  [[nodiscard]] Status Close() XO_EXCLUDES(mu_);

  /// The status of the most recent destructor or Close() checkpoint of any
  /// Database in this process (OK when it succeeded, or before any close).
  /// This is how a failure in the implicit destructor checkpoint — which
  /// has no other way to report — stays observable to callers and tests.
  [[nodiscard]] static Status last_close_status();

  /// Testing hook: simulate a crash. The destructor will NOT checkpoint;
  /// dirty frames are dropped and the WAL keeps its current epoch, so the
  /// next Open() rolls back to the last checkpoint — exactly as if the
  /// process had died here.
  void Kill() { killed_.store(true, std::memory_order_relaxed); }

  /// Runs any statement; DDL/INSERT return an empty result. SELECT and
  /// EXPLAIN take the statement lock shared (parallel with other readers);
  /// everything else takes it exclusively.
  [[nodiscard]] Result<QueryResult> Query(const std::string& sql)
      XO_EXCLUDES(mu_);

  /// Like Query(sql), but governed by `options` (DESIGN.md §12): the
  /// statement runs under a QueryGuard enforcing the deadline and memory
  /// budget, and — when options.query_id is set — is registered for
  /// Cancel() before the statement lock is taken. Guarded SELECTs carry
  /// the guard's counters (checkpoints, peak tracked bytes, why-stopped)
  /// in QueryResult::report. Readers stay cancellable while holding the
  /// statement lock shared: Cancel() only touches guards_mu_, never mu_.
  [[nodiscard]] Result<QueryResult> Query(const std::string& sql,
                                          const QueryOptions& options)
      XO_EXCLUDES(mu_);

  /// Runs a statement for effect only.
  [[nodiscard]] Status Execute(const std::string& sql) XO_EXCLUDES(mu_);

  /// Execute() with guardrails; see Query(sql, options).
  [[nodiscard]] Status Execute(const std::string& sql,
                               const QueryOptions& options) XO_EXCLUDES(mu_);

  /// Requests cooperative cancellation of the in-flight statement that was
  /// started with QueryOptions::query_id == `query_id`. Returns NotFound
  /// when no such statement is currently registered (it may have finished,
  /// or not started yet — callers racing a startup can retry). Safe from
  /// any thread; never blocks on the statement lock, so it works while the
  /// target holds mu_ shared (or is still queued behind a writer).
  [[nodiscard]] Status Cancel(uint64_t query_id) XO_EXCLUDES(guards_mu_);

  /// Returns the EXPLAIN plan of a SELECT without running it.
  [[nodiscard]] Result<std::string> Explain(const std::string& sql)
      XO_EXCLUDES(mu_);

  // -- Failure containment (DESIGN.md §13). ---------------------------------

  /// The engine health state machine. Healthy engines run everything;
  /// Degraded engines run everything but carry quarantined pages;
  /// ReadOnly engines reject mutations (durability is compromised);
  /// Failed engines reject everything and need a reopen.
  EngineHealth* health() { return &health_; }

  /// Attempts to re-arm a Degraded/ReadOnly engine without a process
  /// restart: clears the page quarantine and, for file-backed databases,
  /// tears the storage stack down and re-runs WAL recovery + catalog
  /// reload (rolling back to the last checkpoint — uncheckpointed work is
  /// lost, exactly as a reopen would lose it). On success the engine is
  /// Healthy again. Failure latches kFailed: the on-disk state needs
  /// offline repair and the handle only answers what its caches can.
  /// Table/index pointers obtained from catalog() before TryRecover() are
  /// invalidated. No-op on a Healthy engine; error on a Failed one.
  [[nodiscard]] Status TryRecover() XO_EXCLUDES(mu_);

  /// Runs one budgeted slice of the incremental background scrubber:
  /// checksum-verifies up to `max_pages` pages from the persistent scrub
  /// cursor, quarantining (and reporting Degraded for) every page that
  /// fails. Callable from SQL as `PRAGMA scrub` / `PRAGMA scrub(n)`.
  /// Takes the statement lock shared — scrubbing runs alongside readers.
  [[nodiscard]] Result<ScrubReport> Scrub(uint64_t max_pages = kScrubSlicePages)
      XO_EXCLUDES(mu_);

  /// Default page budget of one scrub slice (1 MB of 8 KB pages).
  static constexpr uint64_t kScrubSlicePages = 128;

  /// Point-in-time (name, value) rows of the resilience report — health
  /// state/detail/transitions plus the buffer pool's containment counters;
  /// exactly the rows `PRAGMA health` returns. Public hook for the network
  /// front end's STATS frame (DESIGN.md section 17), which merges these
  /// with its own admission counters. Takes the statement lock shared.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  ResilienceStats() XO_EXCLUDES(mu_);

  // -- Direct (non-SQL) data path, used by the bulk loader. -----------------

  [[nodiscard]] Status CreateTable(const std::string& name, TableSchema schema)
      XO_EXCLUDES(mu_);
  [[nodiscard]] Status CreateIndex(const std::string& table,
                                   const std::string& column) XO_EXCLUDES(mu_);

  /// Appends `rows` to `table`, maintaining any existing indexes.
  [[nodiscard]] Status BulkInsert(const std::string& table,
                                  const std::vector<Tuple>& rows)
      XO_EXCLUDES(mu_);

  /// Recomputes table statistics (the paper's "runstats").
  [[nodiscard]] Status RunStats() XO_EXCLUDES(mu_);

  /// Creates indexes useful for `queries` (the paper's "DB2 Index Wizard"):
  /// columns compared for equality against another column when they have
  /// at least one distinct value per ~50 rows, and against a literal when
  /// it matches at most 2% of the rows (most-common-values statistics). A
  /// low-NDV column wanted only for a rare literal is built only when
  /// planning `queries` against a stand-in index shows an IndexScan on it.
  /// `PRAGMA stats` shows the statistics behind each decision.
  [[nodiscard]] Status AdviseIndexes(const std::vector<std::string>& queries)
      XO_EXCLUDES(mu_);

  Catalog* catalog() { return &catalog_; }
  FunctionRegistry* functions() { return &functions_; }
  BufferPool* buffer_pool() { return pool_.get(); }
  /// The fault-injection decorator, or nullptr when DbOptions::fault is
  /// unset.
  FaultInjectingPager* fault_pager() { return fault_pager_; }
  /// The write-ahead log (nullptr for memory-backed databases).
  Wal* wal() { return wal_.get(); }
  const DbOptions& options() const { return options_; }
  DbOptions* mutable_options() { return &options_; }

  /// Paper metrics.
  uint64_t DataBytes() const { return catalog_.DataBytes(); }
  uint64_t IndexBytes() const { return catalog_.IndexBytes(); }

 private:
  explicit Database(DbOptions options) : options_(std::move(options)) {}

  // Locked bodies of the public entry points. XO_REQUIRES(mu_) bodies run
  // with the statement lock held exclusively; RunSelect only needs it
  // shared (it is the concurrent read path).
  [[nodiscard]] Result<QueryResult> ExecuteStmtLocked(
      const sql::Statement& stmt) XO_REQUIRES(mu_);
  [[nodiscard]] Status CheckpointLocked() XO_REQUIRES(mu_);
  [[nodiscard]] Status CreateTableLocked(const std::string& name,
                                         TableSchema schema) XO_REQUIRES(mu_);
  [[nodiscard]] Status CreateIndexLocked(const std::string& table,
                                         const std::string& column)
      XO_REQUIRES(mu_);
  [[nodiscard]] Status BulkInsertLocked(const std::string& table,
                                        const std::vector<Tuple>& rows)
      XO_REQUIRES(mu_);

  /// `guard` may be null (unguarded). Guarded runs bind the guard to the
  /// executing thread (ScopedGuardBind) so UDFs and XADT scans can poll it,
  /// close the plan on the error path too (releasing every pin before the
  /// error propagates), and record the guard's counters in the report.
  /// `skip_quarantined` enables the degraded-scan mode (DESIGN.md §13).
  /// `explain_only` returns the EXPLAIN result instead: one "plan" row
  /// holding the rendered operator tree and the report's lines.
  [[nodiscard]] Result<QueryResult> RunSelect(const sql::SelectStmt& stmt,
                                              bool explain_only,
                                              QueryGuard* guard = nullptr,
                                              bool skip_quarantined = false)
      XO_REQUIRES_SHARED(mu_);
  [[nodiscard]] Result<QueryResult> RunDelete(const sql::DeleteStmt& stmt)
      XO_REQUIRES(mu_);
  /// PRAGMA dispatch (health introspection, scrub slices, optimizer
  /// statistics). Shared lock: pragmas only touch internally-synchronized
  /// components, or read statistics that only exclusive statements write.
  [[nodiscard]] Result<QueryResult> RunPragma(const sql::PragmaStmt& stmt)
      XO_REQUIRES_SHARED(mu_);
  /// Row-building body of ResilienceStats()/PRAGMA health.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  ResilienceStatsLocked() XO_REQUIRES_SHARED(mu_);
  /// The unlatched checkpoint body; CheckpointLocked wraps it with the
  /// health gate and failure latching.
  [[nodiscard]] Status DoCheckpointLocked() XO_REQUIRES(mu_);
  /// Builds the storage stack from options_: WAL recovery, pager, WAL
  /// (file-backed only), fault wrapper, buffer pool. Open() and
  /// TryRecover() both run it; each then loads or creates the catalog.
  [[nodiscard]] Status BuildStorage() XO_REQUIRES(mu_);

  /// RAII registration of a guard under a caller-chosen id in guards_,
  /// keyed for Database::Cancel(). Registration happens in the constructor
  /// — before the statement lock is taken — and is removed on destruction.
  /// A query_id of 0 (or a null guard) registers nothing.
  class GuardRegistration {
   public:
    GuardRegistration(Database* db, uint64_t query_id, QueryGuard* guard);
    GuardRegistration(const GuardRegistration&) = delete;
    GuardRegistration& operator=(const GuardRegistration&) = delete;
    ~GuardRegistration();

   private:
    Database* db_;
    uint64_t query_id_;
  };

  /// Serializes the catalog into the meta page (page 0 of file-backed
  /// databases).
  [[nodiscard]] Status SaveCatalog() XO_REQUIRES(mu_);
  /// Rebuilds the catalog from the meta page of an existing database.
  [[nodiscard]] Status LoadCatalog() XO_REQUIRES(mu_);

  /// The statement lock (see the class comment): shared for read-only
  /// statements, exclusive for mutating ones. Outermost lock of the
  /// hierarchy (rank kStatement) — the buffer-pool latches, Wal::mu_ and
  /// Catalog::mu_ all rank below it (DESIGN.md section 10).
  mutable xo::SharedMutex mu_{xo::LockRank::kStatement};
  DbOptions options_;
  /// Engine health (internally synchronized leaf). Declared before the
  /// storage components so it outlives them: the buffer pool may report
  /// into it up to its own destruction.
  EngineHealth health_;
  // The component pointers below are set while Open() runs single-threaded
  // and are immutable afterwards except under TryRecover() (which holds
  // mu_ exclusively); the objects they point to are internally
  // synchronized, so the pointers themselves need no capability.
  std::unique_ptr<Pager> pager_;  // declared before pool_/wal_: destroyed last
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  Catalog catalog_;
  FunctionRegistry functions_;
  FaultInjectingPager* fault_pager_ = nullptr;  // owned via pager_
  /// Set once Open() fully succeeds. A database that failed to open (e.g.
  /// its catalog is corrupt) must stay read-only: checkpointing it would
  /// overwrite the meta page with a partial catalog and truncate the WAL,
  /// destroying exactly the evidence a later repair needs.
  bool opened_ XO_GUARDED_BY(mu_) = false;
  bool closed_ XO_GUARDED_BY(mu_) = false;
  std::atomic<bool> killed_{false};

  /// Registry lock for guards_. A leaf in the hierarchy, independent of
  /// mu_: Cancel() takes only guards_mu_, and registration happens before
  /// mu_ is acquired — so cancellation can never deadlock against (or wait
  /// on) the statement lock (DESIGN.md sections 10 and 12).
  mutable xo::Mutex guards_mu_{xo::LockRank::kLeafGuardRegistry};
  /// In-flight guarded statements by caller-chosen query id. Values point
  /// at stack-allocated guards owned by Query(); GuardRegistration
  /// guarantees removal before the guard dies.
  std::unordered_map<uint64_t, QueryGuard*> guards_ XO_GUARDED_BY(guards_mu_);
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_DATABASE_H_
