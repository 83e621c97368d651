#ifndef XORATOR_ORDB_BUFFER_POOL_H_
#define XORATOR_ORDB_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lifetime.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/typestate.h"
#include "ordb/page.h"
#include "ordb/pager.h"
#include "ordb/wal.h"

namespace xorator::ordb {

class EngineHealth;

/// Counters for buffer-pool behaviour, surfaced by benchmarks, the
/// fault-injection tests, PRAGMA health and statement reports.
/// Aggregated across the pool's bucket shards by BufferPool::stats().
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  /// Transient pager faults absorbed by the retry policy.
  uint64_t retries = 0;
  /// Pages rejected on fetch because their checksum did not verify.
  uint64_t checksum_failures = 0;
  /// Pages currently quarantined (fetches fail fast; DESIGN.md §13).
  uint64_t quarantined_pages = 0;
  /// Fetches rejected without disk I/O because the page was quarantined.
  uint64_t quarantine_hits = 0;
  /// Pages the scrubber has examined (cumulative across slices).
  uint64_t scrub_pages_scanned = 0;
  /// Pages the scrubber found bad and quarantined.
  uint64_t scrub_pages_bad = 0;
  /// Completed full passes of the scrub cursor over the file.
  uint64_t scrub_passes = 0;
};

/// What one BufferPool::ScrubSlice call did (PRAGMA scrub's result row).
struct ScrubReport {
  /// Pages examined in this slice (including resident/quarantined skips).
  uint64_t pages_scanned = 0;
  /// Non-resident pages whose on-disk checksum verified clean.
  uint64_t pages_verified = 0;
  /// Pages skipped because their canonical bytes are resident in the pool
  /// (the disk image may legitimately lag under WAL protection).
  uint64_t pages_resident = 0;
  /// Pages that failed verification in this slice; now quarantined.
  uint64_t pages_bad = 0;
  /// Where the incremental cursor stopped (the next slice resumes here).
  PageId cursor = 0;
  /// True when this slice reached the end of the file (a full pass
  /// completed since the cursor last wrapped).
  bool wrapped = false;
};

class BufferPool;

/// A move-only guard over one pin on one buffer-pool frame, returned by
/// BufferPool::Fetch / BufferPool::Create. Holding the guard keeps the
/// frame resident and its bytes (data()) valid; destruction releases the
/// pin, carrying the dirty bit recorded via MarkDirty(). Call Release()
/// instead of relying on the destructor where the unpin Status should
/// propagate.
///
/// The pin protocol is a compile-checked typestate (DESIGN.md section 11):
/// the class is XO_CONSUMABLE, so under Clang's `-Wconsumed` (an error on
/// every Clang build) touching a guard after Release() or after it was
/// moved from, and releasing it twice, fail the build. The page bytes may
/// be borrowed once (`char* p = ref.data()`) for tight loops, but the raw
/// pointer must not outlive the guard.
///
/// Guards must not outlive their BufferPool; at pool destruction (and at
/// every checkpoint) a debug sentinel asserts PinnedFrameCount() == 0.
///
/// The guard is also a gsl::Owner of its page bytes for Clang's lifetime
/// analysis (DESIGN.md section 14): data() is lifetime-bound to the guard,
/// so returning the bytes of a local or temporary guard is a compile error
/// on Clang builds.
class XO_CONSUMABLE(unconsumed) XO_GSL_OWNER(char) PageRef {
 public:
  /// An empty guard: holds no pin and starts life in the released
  /// (consumed) state, so the only legal next step is to move-assign a
  /// live guard into it.
  PageRef() XO_RETURN_TYPESTATE(consumed) {}

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  /// Transfers the pin; `other` is left released (consumed, enforced by
  /// the analysis' built-in move tracking — deliberately un-annotated,
  /// see common/typestate.h).
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_),
        id_(other.id_),
        data_(other.data_),
        dirty_(other.dirty_) {
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }

  /// Releases any pin this guard still holds, then adopts `other`'s.
  PageRef& operator=(PageRef&& other) noexcept;

  /// Releases the pin if it was never released explicitly. The unpin
  /// Status is discarded here (it can only fail on a protocol violation
  /// the typestate already rules out); use Release() to surface it.
  ~PageRef();

  /// The pinned page's id.
  [[nodiscard]] PageId id() const XO_CALLABLE_WHEN("unconsumed") {
    return id_;
  }

  /// The pinned page's bytes; valid until the pin is released. The pointer
  /// is lifetime-bound to this guard: escaping it past the guard (returning
  /// it, or borrowing from a temporary guard) is a compile error on Clang.
  [[nodiscard]] char* data() XO_CALLABLE_WHEN("unconsumed") XO_LIFETIME_BOUND {
    return data_;
  }
  [[nodiscard]] const char* data() const XO_CALLABLE_WHEN("unconsumed")
      XO_LIFETIME_BOUND {
    return data_;
  }

  /// Records that the page bytes were modified: the frame will be marked
  /// dirty (scheduled for write-back) when the pin is released. Pages from
  /// Create() start dirty; fetched pages start clean.
  void MarkDirty() XO_CALLABLE_WHEN("unconsumed") { dirty_ = true; }

  /// Releases the pin now and surfaces the Unpin Status. After this the
  /// guard is consumed: any further data()/MarkDirty()/Release() is a
  /// compile error under Clang and a no-op destructor at runtime.
  [[nodiscard]] Status Release() XO_CALLABLE_WHEN("unconsumed")
      XO_SET_TYPESTATE(consumed);

  /// True while the guard still holds its pin. Branching on it refines
  /// the static state: the taken branch is treated as unconsumed.
  [[nodiscard]] bool holds() const XO_TEST_TYPESTATE(unconsumed) {
    return pool_ != nullptr;
  }

 private:
  friend class BufferPool;

  PageRef(BufferPool* pool, PageId id, char* data, bool dirty)
      XO_RETURN_TYPESTATE(unconsumed)
      : pool_(pool), id_(id), data_(data), dirty_(dirty) {}

  /// Unpins and deliberately drops the Status (destructor / move-assign
  /// paths, which have nowhere to put it).
  void ReleaseQuietly();

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool dirty_ = false;
};

/// A fixed-capacity LRU buffer pool over a Pager, sharded into
/// independently-latched buckets (DESIGN.md section 15).
///
/// Usage: Fetch/Create return a PageRef guard holding one pin; the frame
/// stays resident until the guard is released (destructor or Release()),
/// and MarkDirty() on the guard schedules write-back. The raw
/// FetchPage/NewPage/Unpin protocol is private — PageRef is the only
/// caller (enforced by the `raw-pin` lint rule, tools/lint), so a leaked
/// or doubled pin is a compile error, not an eviction stall.
///
/// Thread safety: fully thread-safe. The frame table is sharded by page id
/// into bucket_count() buckets; each bucket carries its own latch
/// (`Bucket::mu`, statically checked via Clang Thread Safety Analysis)
/// over its frames, LRU clock, pin counts, quarantine set and counters, so
/// concurrent Fetch/Unpin on pages in different buckets never contend.
/// The Pager is NOT internally synchronized, so all pager I/O and
/// allocation funnels through one `io_mu_` below the bucket latches; the
/// incremental scrubber's cursor and scratch sit under `scrub_mu_` above
/// them (LockRank kBufferPoolMaint > kBufferPoolBucket > kPagerIo;
/// DESIGN.md section 10 has the full numeric hierarchy). Cross-bucket
/// operations (FlushAll, PinnedFrameCount, stats, the quarantine
/// snapshots, set_wal/set_health) visit buckets one at a time in canonical
/// ascending index order — the same-rank ordering the runtime lock-rank
/// detector enforces. The bytes behind a PageRef are valid — and the frame
/// immune to eviction — until the guard releases its pin; the pin count,
/// not the latch, is what protects the page bytes. Writers of page
/// contents must still be mutually excluded from readers of the same page
/// by a higher-level lock (the Database statement lock: statements that
/// mutate pages run exclusively; see DESIGN.md section 10).
///
/// Durability duties (see DESIGN.md "Durability & fault tolerance"):
/// - every fetched page is checksum-verified (kCorruption on mismatch);
/// - every written-back page is checksum-stamped first;
/// - when a Wal is attached, a page's on-disk pre-image is logged before
///   its first write-back of the checkpoint epoch (write-ahead rule);
/// - pager operations failing retryably (Status::IsRetryable, i.e.
///   transient kUnavailable faults) are retried up to kMaxIoRetries times
///   with exponential backoff.
///
/// Failure containment (DESIGN.md §13): a page that fails its checksum is
/// quarantined in its bucket — later fetches fail fast with kCorruption
/// and no disk I/O — and reported to the attached EngineHealth
/// (set_health) as degraded operation; a WAL-append failure during
/// write-back latches read-only mode. ScrubSlice() proactively
/// checksum-verifies the file in budgeted increments, feeding the same
/// per-bucket quarantine sets.
class BufferPool {
 public:
  /// `capacity` is in pages, distributed across the bucket shards. The
  /// bucket count scales with capacity (one bucket per kMinFramesPerBucket
  /// frames, capped at kMaxBuckets), so tiny test pools keep the exact
  /// single-latch eviction order while production-sized pools shard.
  BufferPool(Pager* pager, size_t capacity);

  /// Debug sentinel: asserts no pin outlived the pool (a leaked pin would
  /// have wedged eviction; with PageRef it means a guard outlived us).
  ~BufferPool();

  /// Attaches the write-ahead log consulted before write-backs (fanned out
  /// to every bucket). Pass nullptr to detach (memory-backed databases run
  /// without one).
  void set_wal(Wal* wal);

  /// Attaches the engine health machine that checksum failures and WAL
  /// write-back failures report to; nullptr detaches (tests that exercise
  /// the pool stand-alone).
  void set_health(EngineHealth* health);

  /// Pins `id` and returns its guard. The page starts clean: call
  /// MarkDirty() on the guard after modifying the bytes. Takes only the
  /// bucket latch that owns `id` (plus io_mu_ on a miss).
  [[nodiscard]] Result<PageRef> Fetch(PageId id);

  /// Allocates a new page (already zeroed) and returns its guard. The
  /// page starts dirty — it must reach disk even if never written to.
  [[nodiscard]] Result<PageRef> Create() XO_EXCLUDES(io_mu_);

  /// Writes back all dirty frames, bucket by bucket in canonical order.
  [[nodiscard]] Status FlushAll();

  /// Number of frames currently holding at least one pin, summed across
  /// buckets. Zero at every quiescent point (checkpoints, pool
  /// destruction); the fault-injection suite asserts this after each
  /// failed operation.
  [[nodiscard]] size_t PinnedFrameCount() const;

  /// Snapshot of the counters, aggregated bucket by bucket (each bucket
  /// copied under its latch; the sum is not a single atomic snapshot under
  /// concurrency, which only matters to tests that read it quiesced).
  [[nodiscard]] BufferPoolStats stats() const XO_EXCLUDES(io_mu_);

  /// True if `id` is currently quarantined (fetches of it fail fast).
  [[nodiscard]] bool IsQuarantined(PageId id) const;

  /// Snapshot of the quarantined page ids (unordered), across all buckets.
  [[nodiscard]] std::vector<PageId> QuarantinedPages() const;

  /// Empties every bucket's quarantine set. Called by Database::TryRecover
  /// after WAL recovery restored pre-images (the pages will be re-verified
  /// on their next fetch, and re-quarantined if still bad).
  void ClearQuarantine();

  /// Checksum-verifies up to `max_pages` on-disk pages starting at the
  /// persistent scrub cursor, quarantining failures (DESIGN.md §13). The
  /// cursor is a single page-id sequence over the whole file, so one pass
  /// sweeps every bucket's pages; each page is checked under its owning
  /// bucket's latch (excluding a concurrent write-back of that page).
  /// Pages resident in the pool are skipped (their canonical bytes are in
  /// memory); already-quarantined pages are not re-read. Paced by the
  /// thread's bound QueryGuard, if any: the slice unwinds at the guard's
  /// deadline/cancel like any other scan. The cursor survives between
  /// calls, so repeated slices walk the whole file incrementally.
  [[nodiscard]] Result<ScrubReport> ScrubSlice(uint64_t max_pages)
      XO_EXCLUDES(scrub_mu_);

  /// Best-effort raw read of `id` into `buf` (kPageSize bytes), bypassing
  /// both the quarantine check and checksum verification, and never
  /// caching the bytes. For salvage only: a skip-mode heap scan uses this
  /// to extract the next-page link from a quarantined chain page.
  [[nodiscard]] Status ReadForSalvage(PageId id, char* buf);

  size_t capacity() const { return capacity_; }

  /// Number of independently-latched bucket shards.
  size_t bucket_count() const { return num_buckets_; }

  /// Attempts a pager op, absorbing up to this many transient faults.
  static constexpr int kMaxIoRetries = 4;

  /// Sharding bounds: one bucket per this many frames of capacity...
  static constexpr size_t kMinFramesPerBucket = 8;
  /// ...up to this many buckets (diminishing returns past the thread
  /// counts the engine serves; keeps cross-bucket sweeps cheap).
  static constexpr size_t kMaxBuckets = 16;

 private:
  friend class PageRef;

  struct Frame {
    PageId page_id = kInvalidPageId;
    std::unique_ptr<char[]> data;
    bool dirty = false;
    int pin_count = 0;
    uint64_t last_used = 0;
  };

  /// One shard of the pool: a latch and everything it guards. Buckets live
  /// in one contiguous array (buckets_), so canonical ascending-index
  /// order is ascending-address order — the same-rank ordering the
  /// LockRank detector admits for kBufferPoolBucket.
  struct Bucket {
    /// This bucket's latch. Guards every member below and is held across
    /// the bucket's pager I/O (which additionally serializes on io_mu_).
    mutable xo::Mutex mu{xo::LockRank::kBufferPoolBucket};
    /// Per-bucket copy of the pool-wide WAL pointer (set_wal fans out).
    Wal* wal XO_GUARDED_BY(mu) = nullptr;
    /// Per-bucket copy of the fault sink; EngineHealth's own mutex is a
    /// leaf below the bucket rank, so reporting from under the latch
    /// cannot invert the hierarchy.
    EngineHealth* health XO_GUARDED_BY(mu) = nullptr;
    std::vector<Frame> frames XO_GUARDED_BY(mu);
    std::unordered_map<PageId, size_t> frame_of_page XO_GUARDED_BY(mu);
    std::unique_ptr<char[]> scratch XO_GUARDED_BY(mu);  // pre-image staging
    /// Pages of this bucket whose checksum failed; fetches fail fast until
    /// recovery clears the set (DESIGN.md §13 quarantine lifecycle).
    std::unordered_set<PageId> quarantined XO_GUARDED_BY(mu);
    uint64_t clock XO_GUARDED_BY(mu) = 0;
    BufferPoolStats stats XO_GUARDED_BY(mu);
  };

  /// The bucket owning `id` (pure hash; safe without any lock).
  Bucket& BucketOf(PageId id) const { return buckets_[id % num_buckets_]; }

  // The raw pin protocol. Private on purpose: every external pin flows
  // through a PageRef guard, so balance is structural. Only PageRef and
  // the Fetch/Create wrappers below may call these.
  [[nodiscard]] Result<char*> FetchPage(PageId id);
  [[nodiscard]] Result<std::pair<PageId, char*>> NewPage()
      XO_EXCLUDES(io_mu_);
  [[nodiscard]] Status Unpin(PageId id, bool dirty);

  [[nodiscard]] Result<size_t> GetVictimFrame(Bucket& b) XO_REQUIRES(b.mu);
  /// True when dirty write-back must stop: the engine latched kReadOnly or
  /// kFailed on a journaled pool, so the pre-image log cannot be trusted.
  [[nodiscard]] bool WritebackFrozen(const Bucket& b) const
      XO_REQUIRES(b.mu);
  /// Stamps the checksum, logs the WAL pre-image, writes the frame back.
  [[nodiscard]] Status WriteBack(Bucket& b, Frame& frame) XO_REQUIRES(b.mu);
  /// Pager reads/writes with bounded retry, serialized on io_mu_ (the
  /// Pager itself is not internally synchronized).
  [[nodiscard]] Status ReadRetry(PageId id, char* buf) XO_EXCLUDES(io_mu_);
  [[nodiscard]] Status WriteRetry(PageId id, const char* buf)
      XO_EXCLUDES(io_mu_);
  /// Adds `id` to its bucket's quarantine set and reports degraded health
  /// once.
  void QuarantineLocked(Bucket& b, PageId id) XO_REQUIRES(b.mu);

  Pager* const pager_;  // reached only under io_mu_ (see ReadRetry)
  const size_t capacity_;
  const size_t num_buckets_;
  /// The bucket shards, fixed at construction. A contiguous array so that
  /// index order and address order agree (see Bucket).
  const std::unique_ptr<Bucket[]> buckets_;

  /// Serializes all Pager access (I/O, allocation, page_count): the Pager
  /// is not internally synchronized, and before sharding it inherited
  /// mutual exclusion from the single pool latch. Rank kPagerIo — below
  /// the bucket latches, independent of Wal::mu_.
  mutable xo::Mutex io_mu_{xo::LockRank::kPagerIo};
  /// Transient pager faults absorbed across all buckets (stats().retries).
  uint64_t io_retries_ XO_GUARDED_BY(io_mu_) = 0;

  /// Guards the incremental scrubber's cursor, scratch page and counters.
  /// Rank kBufferPoolMaint — above the bucket latches, because a slice
  /// acquires each page's bucket latch while holding it.
  mutable xo::Mutex scrub_mu_{xo::LockRank::kBufferPoolMaint};
  /// Next page ScrubSlice examines; wraps at the end of the file.
  PageId scrub_cursor_ XO_GUARDED_BY(scrub_mu_) = 0;
  std::unique_ptr<char[]> scrub_scratch_ XO_GUARDED_BY(scrub_mu_);
  uint64_t scrub_pages_scanned_ XO_GUARDED_BY(scrub_mu_) = 0;
  uint64_t scrub_pages_bad_ XO_GUARDED_BY(scrub_mu_) = 0;
  uint64_t scrub_passes_ XO_GUARDED_BY(scrub_mu_) = 0;
};

// PageRef members that touch the pool (and the guard-returning wrappers)
// need BufferPool complete, so they are defined here, below the class —
// but kept in the header: guard construction and release sit on every
// page-access hot path, and inlining keeps the guard API at cost parity
// with the raw FetchPage/Unpin protocol it replaced (see the before/after
// numbers in bench/bench_engine_micro.cc).

inline void PageRef::ReleaseQuietly() {
  if (pool_ == nullptr) return;
  XO_DISCARD_STATUS(
      pool_->Unpin(id_, dirty_),
      "a PageRef is constructed pinned and released exactly once (the "
      "typestate and this null-out enforce it), so the unpin cannot be "
      "unbalanced; a destructor has nowhere to put a Status anyway");
  pool_ = nullptr;
  data_ = nullptr;
}

inline PageRef::~PageRef() { ReleaseQuietly(); }

inline PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    ReleaseQuietly();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

inline Status PageRef::Release() {
  if (pool_ == nullptr) {
    // Unreachable under Clang (-Werror=consumed rejects the call); kept as
    // a runtime backstop for GCC builds.
    return Status::InvalidArgument("Release() of an empty PageRef");
  }
  Status s = pool_->Unpin(id_, dirty_);
  pool_ = nullptr;
  data_ = nullptr;
  return s;
}

inline Result<PageRef> BufferPool::Fetch(PageId id) {
  XO_ASSIGN_OR_RETURN(char* data, FetchPage(id));
  return PageRef(this, id, data, /*dirty=*/false);
}

inline Result<PageRef> BufferPool::Create() {
  XO_ASSIGN_OR_RETURN(auto page, NewPage());
  // A fresh page starts dirty: its zeroed image must reach disk even if
  // the caller never writes a byte (NewPage already marked the frame).
  return PageRef(this, page.first, page.second, /*dirty=*/true);
}

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_BUFFER_POOL_H_
