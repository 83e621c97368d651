#ifndef XORATOR_ORDB_HEALTH_H_
#define XORATOR_ORDB_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace xorator::ordb {

/// Availability state of the engine (DESIGN.md §13). States are ordered by
/// severity and transitions are monotone downward — a fault can only make
/// things worse — with `EngineHealth::Recover()` as the single upward edge
/// (kDegraded/kReadOnly back to kHealthy, driven by Database::TryRecover).
/// kFailed is terminal: the storage stack is gone and only reopening the
/// file helps.
enum class HealthState : int {
  /// Everything works; mutations and reads are both served.
  kHealthy = 0,
  /// Contained damage (e.g. quarantined pages). Mutations still run;
  /// strict scans touching the damage fail, skip_quarantined scans report
  /// it instead.
  kDegraded = 1,
  /// Durability is compromised (WAL append or checkpoint failed, meta page
  /// unreadable). SELECT/EXPLAIN keep working; mutations fail fast with
  /// kUnavailable carrying the latched detail.
  kReadOnly = 2,
  /// The storage stack is detached or unrecoverable. Terminal.
  kFailed = 3,
};

/// Human-readable name of `state` ("Healthy", "Degraded", ...).
std::string_view HealthStateName(HealthState state);

/// Point-in-time copy of the health machine, for PRAGMA health.
struct HealthSnapshot {
  HealthState state = HealthState::kHealthy;
  /// Number of state changes since the engine opened (escalations and
  /// recoveries both count; same-severity detail refreshes do not).
  uint64_t transitions = 0;
  /// Why the engine left kHealthy (empty while healthy).
  std::string detail;
};

/// The engine health state machine, owned by Database (DESIGN.md §13).
///
/// Thread safety: fully thread-safe. The state itself is an atomic — a
/// mutation entry point polls it without locking — while the detail string
/// is guarded by an internal mutex. That mutex is a leaf of the lock
/// hierarchy: storage components report faults from under their own locks
/// (e.g. a buffer-pool bucket latch during a write-back), so EngineHealth
/// must never acquire anything on its way down.
///
/// Escalations latch: reporting a severity at or below the current state
/// refreshes the detail at equal severity and is otherwise a no-op, so the
/// machine can absorb fault storms without bouncing. The only illegal edge
/// is Recover() out of kFailed, which aborts in debug builds (the
/// death-tested contract) and reports failure in release builds.
class EngineHealth {
 public:
  EngineHealth() = default;
  EngineHealth(const EngineHealth&) = delete;
  EngineHealth& operator=(const EngineHealth&) = delete;

  /// Current state (relaxed atomic load; cheap enough for per-statement
  /// polling).
  [[nodiscard]] HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_relaxed));
  }

  /// State changes since construction.
  [[nodiscard]] uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

  /// Coherent copy of state + transition count + detail.
  [[nodiscard]] HealthSnapshot Snapshot() const XO_EXCLUDES(mu_);

  /// Reports contained damage (quarantined page, failed write-back).
  /// Escalates kHealthy to kDegraded; never de-escalates.
  void ReportDegraded(std::string detail) XO_EXCLUDES(mu_);

  /// Reports a durability failure (WAL append, checkpoint, meta page).
  /// Escalates anything below kReadOnly to kReadOnly.
  void ReportReadOnly(std::string detail) XO_EXCLUDES(mu_);

  /// Reports an unrecoverable failure (storage stack detached). Terminal.
  void ReportFailed(std::string detail) XO_EXCLUDES(mu_);

  /// The one upward edge: re-arms a kDegraded/kReadOnly engine back to
  /// kHealthy after Database::TryRecover() re-verified the storage stack.
  /// No-op (returning true) when already healthy. Calling this on a
  /// kFailed engine is the machine's one illegal transition: debug builds
  /// abort (see the class comment); release builds return false and stay
  /// failed.
  [[nodiscard]] bool Recover() XO_EXCLUDES(mu_);

  /// OK while mutations may run (kHealthy/kDegraded); otherwise
  /// kUnavailable carrying the state name and latched detail — the
  /// fail-fast error mutation entry points return. For kReadOnly the
  /// status also carries a retry-after hint (kReadOnlyRetryAfterMillis):
  /// retrying can help, but only after TryRecover() re-arms the engine,
  /// so backoff layers should wait rather than hot-retry.
  [[nodiscard]] Status CheckWritable() const XO_EXCLUDES(mu_);

  /// Retry-after hint attached to kReadOnly mutation rejections: long
  /// enough that a well-behaved client backs off across a TryRecover()
  /// window instead of hammering a latched engine.
  static constexpr uint32_t kReadOnlyRetryAfterMillis = 500;

  /// OK unless the engine is kFailed (reads survive every other state).
  [[nodiscard]] Status CheckUsable() const XO_EXCLUDES(mu_);

 private:
  /// Latches `to` if it is strictly worse than the current state;
  /// refreshes the detail at equal severity.
  void Escalate(HealthState to, std::string detail) XO_EXCLUDES(mu_);

  /// Guards detail_ only (state/transitions are atomics). Leaf lock (rank
  /// kLeafHealth): reporters call in from under the buffer-pool bucket
  /// latches and Wal::mu_.
  mutable xo::Mutex mu_{xo::LockRank::kLeafHealth};
  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
  std::atomic<uint64_t> transitions_{0};
  std::string detail_ XO_GUARDED_BY(mu_);
};

/// What one skip_quarantined statement skipped (DESIGN.md §13). A statement
/// opts in by handing out a DegradedScan; a null one means strict, and
/// corrupt data fails the statement. It rides the statement's
/// ExecContext::degraded, which heap scanners and the XADT table functions
/// alike read from the thread's binding (ExecContext::Current()).
struct DegradedScan {
  /// Heap pages skipped because they were quarantined/corrupt.
  uint64_t skipped_pages = 0;
  /// Records skipped because their overflow chain was corrupt, plus one
  /// marker for each skipped page.
  uint64_t skipped_records = 0;
  /// XADT fragments skipped because they failed to parse.
  uint64_t skipped_fragments = 0;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_HEALTH_H_
