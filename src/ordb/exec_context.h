#ifndef XORATOR_ORDB_EXEC_CONTEXT_H_
#define XORATOR_ORDB_EXEC_CONTEXT_H_

#include "common/status.h"
#include "ordb/functions.h"
#include "ordb/query_guard.h"

namespace xorator::ordb {

struct DegradedScan;

/// The state of one running statement (DESIGN.md §12–13), bound to the
/// thread that runs it by a ScopedExecContext. Every layer reads it from
/// there through Current(): operators and expressions, the marshaled UDF
/// dispatch, the XADT fragment scanner and the `unnest` UDF, heap scans,
/// bulk inserts, DELETE, scrub slices and the loader. Nothing passes it as
/// a parameter.
struct ExecContext {
  /// The statement's resource governor, or null when unguarded. Every
  /// operator's Next() loop, every materializing Open() loop and every
  /// XADT scan polls it, so a runaway statement stops cooperatively.
  QueryGuard* guard = nullptr;
  /// The statement's degraded-scan counters, or null for a strict
  /// statement (DESIGN.md §13). Set when QueryOptions::skip_quarantined
  /// opts in: heap scans then skip quarantined/corrupt pages and corrupt
  /// overflow chains, and `unnest` skips fragments that fail to decode,
  /// instead of failing, and count them here.
  DegradedScan* degraded = nullptr;
  /// UDF dispatch accounting for this statement.
  UdfStats udf_stats;

  /// Polls the guard, if any: OK to keep running, else the guard's
  /// kCancelled / kDeadlineExceeded / kResourceExhausted error.
  [[nodiscard]] Status CheckPoint() {
    return guard == nullptr ? Status::OK() : guard->CheckPoint();
  }

  /// The context bound to the calling thread by the innermost live
  /// ScopedExecContext, or null when no statement runs on it (direct
  /// library use, unit tests).
  static ExecContext* Current();

  /// Current()'s guard: null when no statement is bound or it runs
  /// unguarded. Per-row loops read it once and poll it directly.
  static QueryGuard* CurrentQueryGuard() {
    ExecContext* ctx = Current();
    return ctx == nullptr ? nullptr : ctx->guard;
  }
};

/// Binds `ctx` as the calling thread's ExecContext::Current() for the scope
/// of this object and restores the previous binding on destruction, so
/// bindings nest; `ctx` must outlive the binder. Database binds each
/// statement's context here, and shred::Loader binds one for a batch.
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext& ctx);
  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;
  ~ScopedExecContext();

 private:
  ExecContext* prev_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXEC_CONTEXT_H_
