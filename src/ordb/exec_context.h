#ifndef XORATOR_ORDB_EXEC_CONTEXT_H_
#define XORATOR_ORDB_EXEC_CONTEXT_H_

#include "common/status.h"
#include "ordb/functions.h"
#include "ordb/query_guard.h"

namespace xorator::ordb {

struct DegradedScan;

/// Per-query execution context threaded through expressions and operators.
///
/// Carries the query's `QueryGuard` (deadline / cancellation / memory
/// budget, DESIGN.md §12): every operator's Next() loop and every
/// materializing Open() loop polls `CheckPoint()` so a runaway query can be
/// stopped cooperatively. `guard` is null for unguarded execution (internal
/// statements, tests), which makes the poll a branch on a null pointer.
struct ExecContext {
  /// The statement's resource governor, or null when unguarded. Owned by
  /// Database::Query for the duration of the statement.
  QueryGuard* guard = nullptr;
  /// The statement's degraded-scan counters, or null for a strict
  /// statement (DESIGN.md §13). Set when QueryOptions::skip_quarantined
  /// opts in: table scans then skip quarantined/corrupt pages and corrupt
  /// overflow chains instead of failing, and count them here.
  DegradedScan* degraded = nullptr;
  /// UDF dispatch accounting for this query.
  UdfStats udf_stats;

  /// Polls the guard, if any: OK to keep running, else the guard's
  /// kCancelled / kDeadlineExceeded / kResourceExhausted error. Operators
  /// call this once per row produced or materialized.
  [[nodiscard]] Status CheckPoint() {
    return guard == nullptr ? Status::OK() : guard->CheckPoint();
  }
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXEC_CONTEXT_H_
