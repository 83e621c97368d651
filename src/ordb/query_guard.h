#ifndef XORATOR_ORDB_QUERY_GUARD_H_
#define XORATOR_ORDB_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace xorator::ordb {

/// Snapshot of a guard's counters, surfaced in EXPLAIN output and
/// `shred::LoadReport` so callers can see how close a query came to its
/// limits and why it stopped (DESIGN.md §12).
struct GuardStats {
  /// Number of CheckPoint() calls the query made (a proxy for rows/steps
  /// examined between cancellation opportunities).
  uint64_t checkpoints = 0;
  /// Bytes currently charged against the budget.
  uint64_t tracked_bytes = 0;
  /// High-water mark of charged bytes over the query's lifetime.
  uint64_t peak_tracked_bytes = 0;
  /// Why the guard tripped: kDeadlineExceeded, kCancelled or
  /// kResourceExhausted — or kOk if it never did.
  StatusCode stop_code = StatusCode::kOk;

  /// One-line human-readable rendering for EXPLAIN and statement reports,
  /// e.g. "guard: checkpoints=1234 peak_bytes=5678 stopped=Cancelled".
  std::string ToString() const;
};

/// Per-query resource governor: a monotonic deadline, a cross-thread cancel
/// token, and a tracked-byte budget, polled cooperatively via CheckPoint()
/// from operator loops, XADT fragment scans and the bulk loader.
///
/// Protocol (DESIGN.md §12): the thread running the query calls
/// CheckPoint() every few rows / fragment events and Charge()/Uncharge()
/// around materializations; any other thread may call Cancel() at any time.
/// The first limit to trip is latched as `stop_code` and every subsequent
/// CheckPoint() keeps returning the same error, so a query unwinds with one
/// coherent reason. All counters are atomics — a guard may be polled while
/// the owning statement holds `Database::mu_` shared, and Cancel() never
/// takes a lock, so readers stay cancellable mid-statement.
///
/// A limit of 0 means "unlimited" for both the deadline and the byte
/// budget; a guard constructed with both zero still honors Cancel().
class QueryGuard {
 public:
  /// Starts the clock now. `deadline_millis` bounds wall time from this
  /// moment (steady clock, immune to wall-clock adjustment);
  /// `max_memory_bytes` bounds the sum of outstanding Charge()s. Zero
  /// disables the respective limit.
  QueryGuard(uint64_t deadline_millis, uint64_t max_memory_bytes);

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// Polls every limit. Returns OK to keep running, or latches and returns
  /// kCancelled / kDeadlineExceeded / kResourceExhausted. Cheap enough for
  /// per-row use: the cancel flag and byte counter are relaxed atomic
  /// loads; the clock is only read every kClockStride calls (a late
  /// deadline detection of at most kClockStride rows).
  [[nodiscard]] Status CheckPoint();

  /// Requests cooperative cancellation; the query returns kCancelled from
  /// its next CheckPoint(). Safe from any thread, lock-free.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() has been called (the query may not have noticed
  /// yet).
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Adds `bytes` to the tracked total (updating the peak). Returns
  /// kResourceExhausted — latched, like CheckPoint() — when the total
  /// exceeds the budget; the charge stays recorded so the unwinding
  /// caller's Uncharge() balances it.
  [[nodiscard]] Status Charge(uint64_t bytes);

  /// Returns `bytes` to the budget. Must balance a prior Charge().
  void Uncharge(uint64_t bytes) {
    tracked_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Point-in-time snapshot of the counters; coherent enough for reporting
  /// (individual fields are read relaxed).
  GuardStats Stats() const;

  /// Stats().ToString().
  std::string StatsLine() const { return Stats().ToString(); }

  /// True for the three codes a guard stop produces (kCancelled,
  /// kDeadlineExceeded, kResourceExhausted); callers use this to tell a
  /// governed abort from a genuine data or storage error.
  static bool IsStopCode(StatusCode code) {
    return code == StatusCode::kCancelled ||
           code == StatusCode::kDeadlineExceeded ||
           code == StatusCode::kResourceExhausted;
  }

 private:
  /// Clock reads are strided: CheckPoint() consults steady_clock only once
  /// per this many calls. 32 keeps BM_GuardOverhead comfortably under the
  /// 2% target while bounding deadline-detection latency to a handful of
  /// microseconds of extra rows.
  static constexpr uint64_t kClockStride = 32;

  /// Latches `code` as the stop reason if none is set yet and returns the
  /// reason actually latched (first trip wins).
  StatusCode LatchStop(StatusCode code);

  /// Builds the error for the latched stop code.
  Status StopError(StatusCode code) const;

  const uint64_t deadline_millis_;
  const uint64_t max_memory_bytes_;
  const std::chrono::steady_clock::time_point start_;
  const std::chrono::steady_clock::time_point deadline_;

  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> tracked_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
  /// StatusCode of the first limit to trip, or kOk. Stored as int so it
  /// fits a lock-free atomic on every target.
  std::atomic<int> stop_code_{static_cast<int>(StatusCode::kOk)};
};

/// RAII accounting for one consumer's share of a guard's byte budget
/// (operator hash tables, sort buffers, decoded XADT fragments). Charges
/// accumulate via Charge(); everything still outstanding is returned to the
/// guard when the arena is destroyed or Release()d, so an error unwind can
/// never leak budget. A null guard makes every operation a no-op, keeping
/// unguarded execution zero-cost.
class TrackedArena {
 public:
  /// An unbound arena; every operation is a no-op until Rebind().
  TrackedArena() : guard_(nullptr) {}
  /// Binds the arena to `guard` (may be null for unguarded execution).
  explicit TrackedArena(QueryGuard* guard) : guard_(guard) {}

  TrackedArena(const TrackedArena&) = delete;
  TrackedArena& operator=(const TrackedArena&) = delete;

  ~TrackedArena() { Release(); }

  /// Charges `bytes` against the guard's budget; kResourceExhausted when
  /// the query is over budget, OK otherwise (and always OK when unguarded).
  [[nodiscard]] Status Charge(uint64_t bytes);

  /// Returns every outstanding byte to the guard. Idempotent; called by
  /// the destructor.
  void Release();

  /// Releases any outstanding charge, then binds the arena to `guard` (an
  /// operator's Open() does this, since the guard is only known then and
  /// operators may be re-opened).
  void Rebind(QueryGuard* guard) {
    Release();
    guard_ = guard;
  }

  /// Bytes this arena currently holds charged.
  uint64_t charged() const { return charged_; }

 private:
  QueryGuard* guard_;
  uint64_t charged_ = 0;
};

/// The guard bound to the calling thread by ScopedGuardBind, or null.
///
/// Exists for the XADT UDF boundary: scalar/table function implementations
/// receive only `const std::vector<Value>&` (the marshaled-UDF ABI,
/// functions.h), so the executor cannot pass a guard through the call.
/// Database binds the statement's guard to the executing thread instead,
/// and the xadt fragment loops poll it here (DESIGN.md §12).
QueryGuard* CurrentGuard();

/// Binds `guard` as the calling thread's CurrentGuard() for the scope of
/// this object, restoring the previous binding on destruction (bindings
/// nest).
class ScopedGuardBind {
 public:
  /// Installs `guard` (may be null, which unbinds for the scope).
  explicit ScopedGuardBind(QueryGuard* guard);
  ScopedGuardBind(const ScopedGuardBind&) = delete;
  ScopedGuardBind& operator=(const ScopedGuardBind&) = delete;
  ~ScopedGuardBind();

 private:
  QueryGuard* prev_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_QUERY_GUARD_H_
