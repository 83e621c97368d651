#ifndef XORATOR_COMMON_MUTEX_H_
#define XORATOR_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

// Annotated synchronization primitives (DESIGN.md sections 10 and 15).
//
// These wrap the standard mutexes with Clang Thread Safety Analysis
// capability annotations so that `XO_GUARDED_BY(mu_)` members and
// `XO_REQUIRES(mu_)` functions are statically checked on every Clang
// build. Library code must use these instead of raw `std::mutex` /
// `std::shared_mutex` / `std::lock_guard` / `std::unique_lock` — the
// repository lint (tools/lint, rule `raw-mutex`) enforces that; this file
// is the single allowlisted implementation site.
//
// The deliberately minimal surface (no timed mutex waits, no
// native_handle) keeps every acquisition analyzable: a capability is only
// ever taken through `Lock`/`ReaderLock` members or the scoped RAII guards
// below, so the analysis sees every edge. Condition waits go through
// xo::CondVar, whose Wait/WaitFor release and re-acquire the xo::Mutex via
// the same rank-checked entry points, so a sleeping waiter keeps the
// held-lock stack truthful.
//
// On top of the static analysis, every mutex carries a LockRank — the
// DESIGN.md section 10 lock hierarchy made executable. Debug builds keep a
// per-thread stack of held ranks and abort on any acquisition that
// violates the hierarchy, catching at runtime the orderings the static
// lattice cannot express (notably the canonical-index ordering of the
// sharded buffer-pool bucket latches, which share one rank).

namespace xo {

/// The lock hierarchy of DESIGN.md section 10 as numeric ranks. A thread
/// may only acquire a mutex whose rank is strictly below the rank of the
/// most recently acquired mutex it still holds (ranks descend inward), with
/// one exception: a mutex of the *same* rank may be acquired if its address
/// is greater than the held one's — the canonical ordering tier used by the
/// sharded buffer-pool bucket latches, which live in one contiguous array
/// acquired in ascending index (= ascending address) order.
///
/// Gaps between values are deliberate: new subsystems slot in without
/// renumbering. The `kLeaf*` ranks are terminal — nothing is ever acquired
/// while holding one.
enum class LockRank : int {
  /// Leaf: EngineHealth's detail mutex. Fault reporters call in from under
  /// bucket latches and Wal::mu_, so nothing may nest below it.
  kLeafHealth = 100,
  /// Leaf: the process-wide close-status record (database.cc).
  kLeafCloseStatus = 110,
  /// Catalog::mu_ — registry lookups/registration. Pool allocations happen
  /// before it is taken, so it nests under nothing but the statement lock.
  kCatalog = 300,
  /// Wal::mu_ — journal stream + logged-page set, taken by write-backs
  /// from under a bucket latch.
  kWal = 400,
  /// BufferPool::io_mu_ — serializes the (unsynchronized) Pager under the
  /// bucket latches; see DESIGN.md section 15.
  kPagerIo = 450,
  /// One sharded buffer-pool bucket latch. The only rank acquired
  /// same-rank: cross-bucket operations take buckets in canonical
  /// (ascending index, therefore ascending address) order.
  kBufferPoolBucket = 500,
  /// BufferPool::scrub_mu_ — the scrub cursor/scratch, which acquires
  /// bucket latches page by page while held.
  kBufferPoolMaint = 550,
  /// Database::mu_ — the statement lock, outermost engine lock.
  kStatement = 600,
  /// server::Server::mu_ — the network front end's admission/queue state.
  /// Above kStatement: the server is a layer over the engine, so even an
  /// accidental engine call made while holding server state descends the
  /// hierarchy. By design the server never holds its mutex across engine
  /// calls (DESIGN.md section 17).
  kServer = 700,
};

/// Human-readable name of `rank`, for the inversion abort message.
inline const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kLeafHealth:
      return "LeafHealth";
    case LockRank::kLeafCloseStatus:
      return "LeafCloseStatus";
    case LockRank::kCatalog:
      return "Catalog";
    case LockRank::kWal:
      return "Wal";
    case LockRank::kPagerIo:
      return "PagerIo";
    case LockRank::kBufferPoolBucket:
      return "BufferPoolBucket";
    case LockRank::kBufferPoolMaint:
      return "BufferPoolMaint";
    case LockRank::kStatement:
      return "Statement";
    case LockRank::kServer:
      return "Server";
  }
  return "?";
}

// The runtime detector is compiled in whenever asserts are (the same gate
// as the unchecked-Status tracker and the pin-leak sentinels), so the
// Sanitize / ThreadSanitize CI legs and the chaos soak run with it armed;
// Release builds (NDEBUG) pay nothing beyond the 4-byte rank member.
// XORATOR_LOCK_RANK_CHECK forces it on independently of NDEBUG.
#if !defined(NDEBUG) || defined(XORATOR_LOCK_RANK_CHECK)
#define XO_LOCK_RANK_CHECK_ENABLED 1
#else
#define XO_LOCK_RANK_CHECK_ENABLED 0
#endif

namespace rank_internal {

#if XO_LOCK_RANK_CHECK_ENABLED

/// One held acquisition: which mutex, its rank, and the code address the
/// acquisition returned to (resolvable with addr2line against the binary).
struct HeldLock {
  const void* mu = nullptr;
  int rank = 0;
  const void* site = nullptr;
};

/// Per-thread stack of held acquisitions. A fixed array: the engine's
/// deepest legal chain is statement → maint → bucket → io/wal → leaf, plus
/// the 16-bucket canonical sweep, so 64 slots is generous headroom.
struct HeldLockStack {
  static constexpr int kCapacity = 64;
  HeldLock entries[kCapacity];
  int size = 0;
};

/// The calling thread's held-lock stack.
inline HeldLockStack& ThreadLockStack() {
  thread_local HeldLockStack stack;
  return stack;
}

/// Reports a hierarchy violation with both acquisition sites and aborts.
/// Never returns; the message is the contract the death tests match on.
[[noreturn]] inline void AbortLockRankViolation(const char* kind,
                                                const void* mu, LockRank rank,
                                                const void* site,
                                                const HeldLock& held) {
  std::fprintf(
      stderr,
      "xorator: lock rank %s: acquiring %s (rank %d, mutex %p) at %p "
      "while holding %s (rank %d, mutex %p) acquired at %p; the lock "
      "hierarchy (DESIGN.md section 10) permits only strictly descending "
      "ranks, or equal ranks in ascending address order\n",
      kind, LockRankName(rank), static_cast<int>(rank), mu, site,
      LockRankName(static_cast<LockRank>(held.rank)), held.rank, held.mu,
      held.site);
  std::abort();
}

/// Checks `mu` against the thread's held stack and records the
/// acquisition. Called with the raw lock NOT yet taken, so the abort fires
/// before the thread can actually deadlock.
inline void PushLockRank(const void* mu, LockRank rank, const void* site) {
  HeldLockStack& stack = ThreadLockStack();
  for (int i = 0; i < stack.size; ++i) {
    if (stack.entries[i].mu == mu) {
      AbortLockRankViolation("self-deadlock (re-acquisition)", mu, rank, site,
                             stack.entries[i]);
    }
  }
  if (stack.size > 0) {
    const HeldLock& top = stack.entries[stack.size - 1];
    const bool descending = static_cast<int>(rank) < top.rank;
    const bool canonical_same_rank =
        static_cast<int>(rank) == top.rank && mu > top.mu;
    if (!descending && !canonical_same_rank) {
      AbortLockRankViolation("inversion", mu, rank, site, top);
    }
  }
  if (stack.size >= HeldLockStack::kCapacity) {
    std::fprintf(stderr,
                 "xorator: lock rank stack overflow (%d locks held by one "
                 "thread) acquiring %s (mutex %p) at %p\n",
                 stack.size, LockRankName(rank), mu, site);
    std::abort();
  }
  stack.entries[stack.size++] = HeldLock{mu, static_cast<int>(rank), site};
}

/// Removes `mu` from the thread's held stack (releases may be out of
/// order, so this erases the matching entry, not necessarily the top).
inline void PopLockRank(const void* mu) {
  HeldLockStack& stack = ThreadLockStack();
  for (int i = stack.size - 1; i >= 0; --i) {
    if (stack.entries[i].mu == mu) {
      for (int j = i; j + 1 < stack.size; ++j) {
        stack.entries[j] = stack.entries[j + 1];
      }
      --stack.size;
      return;
    }
  }
  // Releasing a lock this thread never recorded: the acquisition predates
  // the thread (impossible for these wrappers) or the bookkeeping is
  // broken. Either way the detector's state is untrustworthy.
  std::fprintf(stderr,
               "xorator: lock rank release of untracked mutex %p\n", mu);
  std::abort();
}

#define XO_LOCK_RANK_PUSH(mu, rank) \
  ::xo::rank_internal::PushLockRank(mu, rank, __builtin_return_address(0))
#define XO_LOCK_RANK_POP(mu) ::xo::rank_internal::PopLockRank(mu)

#else  // !XO_LOCK_RANK_CHECK_ENABLED

#define XO_LOCK_RANK_PUSH(mu, rank) ((void)0)
#define XO_LOCK_RANK_POP(mu) ((void)0)

#endif  // XO_LOCK_RANK_CHECK_ENABLED

}  // namespace rank_internal

/// An exclusive mutex carrying the "mutex" capability and a LockRank.
/// Prefer the scoped MutexLock guard over calling Lock/Unlock directly.
class XO_CAPABILITY("mutex") Mutex {
 public:
  /// Every mutex declares its place in the lock hierarchy at construction
  /// (the `lock-rank` lint rule enforces an explicit rank at every
  /// declaration site).
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Acquires the mutex exclusively, blocking until available. In debug
  /// builds the rank detector runs first, so a would-be deadlock aborts
  /// with both acquisition sites instead of hanging.
  void Lock() XO_ACQUIRE() {
    XO_LOCK_RANK_PUSH(this, rank_);
    mu_.lock();
  }

  /// Releases an exclusive hold.
  void Unlock() XO_RELEASE() {
    mu_.unlock();
    XO_LOCK_RANK_POP(this);
  }

  /// Attempts an exclusive acquisition; true if it was obtained. Rank
  /// checked like Lock(): a try-acquisition that *would* invert the
  /// hierarchy is a bug even when it would have failed cleanly.
  [[nodiscard]] bool TryLock() XO_TRY_ACQUIRE(true) {
    XO_LOCK_RANK_PUSH(this, rank_);
    if (mu_.try_lock()) return true;
    XO_LOCK_RANK_POP(this);
    return false;
  }

  /// This mutex's declared place in the hierarchy.
  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// A reader/writer mutex: many concurrent shared holders or one exclusive
/// holder. Carries the "shared_mutex" capability and a LockRank; shared
/// acquisitions satisfy XO_REQUIRES_SHARED, exclusive ones satisfy
/// XO_REQUIRES. Both modes participate in the rank discipline.
class XO_CAPABILITY("shared_mutex") SharedMutex {
 public:
  /// See Mutex: the rank is the mutex's place in the DESIGN.md section 10
  /// hierarchy, enforced at runtime in debug builds.
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  /// Acquires the mutex exclusively (writer side).
  void Lock() XO_ACQUIRE() {
    XO_LOCK_RANK_PUSH(this, rank_);
    mu_.lock();
  }

  /// Releases an exclusive hold.
  void Unlock() XO_RELEASE() {
    mu_.unlock();
    XO_LOCK_RANK_POP(this);
  }

  /// Acquires the mutex shared (reader side). Shared holds obey the same
  /// rank discipline: a reader acquiring upward is as deadlock-prone
  /// against a queued writer as an exclusive holder would be.
  void ReaderLock() XO_ACQUIRE_SHARED() {
    XO_LOCK_RANK_PUSH(this, rank_);
    mu_.lock_shared();
  }

  /// Releases a shared hold.
  void ReaderUnlock() XO_RELEASE_SHARED() {
    mu_.unlock_shared();
    XO_LOCK_RANK_POP(this);
  }

  /// This mutex's declared place in the hierarchy.
  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

/// Scoped exclusive guard over an xo::Mutex (the std::lock_guard shape,
/// visible to the analysis).
class XO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) XO_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() XO_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Scoped exclusive (writer) guard over an xo::SharedMutex.
class XO_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) XO_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() XO_RELEASE() { mu_->Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// A condition variable usable with xo::Mutex. Wait/WaitFor release and
/// re-acquire the mutex through its rank-checked Lock/Unlock entry points,
/// so the runtime lock-rank detector's per-thread stack stays accurate
/// across the sleep (the waiter holds nothing while blocked, exactly as at
/// runtime). The capability annotations model the net effect — the caller
/// holds `mu` before and after — while the internal release/re-acquire is
/// opted out of the analysis (the standard condition-variable blind spot).
///
/// Spurious wakeups happen; always wait in a predicate loop. Signal need
/// not hold the mutex, but the waited-on state must be written under it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu` and blocks until notified (or spuriously
  /// woken); re-acquires `*mu` before returning.
  void Wait(Mutex* mu) XO_REQUIRES(mu) {
    RankedLockAdapter adapter{mu};
    cv_.wait(adapter);
  }

  /// Wait() with a timeout. Returns false when the wait timed out (the
  /// mutex is re-acquired either way). A non-positive timeout polls.
  bool WaitFor(Mutex* mu, int64_t timeout_millis) XO_REQUIRES(mu) {
    RankedLockAdapter adapter{mu};
    return cv_.wait_for(adapter, std::chrono::milliseconds(timeout_millis)) ==
           std::cv_status::no_timeout;
  }

  /// Wakes one waiter.
  void Signal() { cv_.notify_one(); }

 private:
  /// BasicLockable adapter handing the wait's internal unlock/lock pair to
  /// the rank-checked xo::Mutex entry points. The methods are excluded
  /// from Thread Safety Analysis: they deliberately release a capability
  /// the enclosing Wait() is annotated as holding throughout.
  struct RankedLockAdapter {
    Mutex* mu;
    void lock() XO_NO_THREAD_SAFETY_ANALYSIS { mu->Lock(); }
    void unlock() XO_NO_THREAD_SAFETY_ANALYSIS { mu->Unlock(); }
  };

  std::condition_variable_any cv_;
};

/// Scoped shared (reader) guard over an xo::SharedMutex. The destructor's
/// generic release matches either mode, which is how scoped capabilities
/// are modelled by the analysis.
class XO_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) XO_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderLock() XO_RELEASE() { mu_->ReaderUnlock(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace xo

#endif  // XORATOR_COMMON_MUTEX_H_
