#ifndef XORATOR_SHRED_LOADER_H_
#define XORATOR_SHRED_LOADER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mapping/schema.h"
#include "ordb/database.h"
#include "ordb/query_guard.h"
#include "xml/dom.h"

namespace xorator::shred {

/// Knobs for shredding documents into the mapped tables.
struct LoadOptions {
  /// The loader picks the XADT representation by sampling (Section 4.1):
  /// compression is used only when xadt::ChooseCompression accepts it on
  /// the first three documents. Set `force_compression`/`force_raw` to skip
  /// the sampling.
  bool force_compression = false;
  bool force_raw = false;
  /// Abort the batch on the first failed document instead of isolating the
  /// error and continuing with the rest (see LoadReport::errors).
  bool stop_on_error = false;
  /// Optional resource governor for the whole batch (DESIGN.md §12). The
  /// loader polls it between documents and binds it thread-locally so the
  /// per-row checkpoints inside Database::BulkInsert see it too. A guard
  /// stop is reported distinctly from per-document errors: it ends the
  /// batch and fills LoadReport::stopped_code, it is not a "skip".
  ordb::QueryGuard* guard = nullptr;
};

/// One document that failed to load (when LoadOptions::stop_on_error is
/// off, the failure is recorded here instead of aborting the batch).
struct LoadError {
  /// Index of the document in the batch passed to Load.
  size_t document = 0;
  Status status;
};

/// What a Load() call actually did (rows, bytes, XADT choices).
struct LoadReport {
  bool used_compression = false;
  uint64_t documents = 0;
  uint64_t tuples = 0;
  /// Documents that failed to shred or insert and were skipped. Counts only
  /// genuine per-document faults (malformed structure, storage errors) —
  /// never guard stops, which end the batch and land in `cancelled`.
  uint64_t skipped = 0;
  std::vector<LoadError> errors;
  /// Documents abandoned because the batch guard tripped (0 or 1: a guard
  /// stop is latched, so the batch ends at the first one). Documents after
  /// the stop were never attempted and appear in no counter.
  uint64_t cancelled = 0;
  /// Why the guard stopped the batch (kCancelled, kDeadlineExceeded or
  /// kResourceExhausted), or kOk when it ran to completion. Kept as raw
  /// code + message rather than a Status so an unread report never trips
  /// the unchecked-Status tracker.
  StatusCode stopped_code = StatusCode::kOk;
  std::string stopped_message;
  /// Wall-clock milliseconds spent shredding + inserting.
  double load_millis = 0;
  /// Per-document elapsed milliseconds (shred + insert), parallel to the
  /// batch order; documents never attempted have no entry.
  std::vector<double> doc_millis;
};

/// Creates the tables of `schema` in `db` and loads `documents` through the
/// Shredder.
///
/// Thread safety: not synchronized. Each statement-level call into the
/// database takes the statement lock itself, but a load is a multi-step
/// orchestration (create tables, then many bulk inserts), so a Loader must
/// be driven from one thread and must not overlap other writers on the
/// same database (DESIGN.md section 10).
class Loader {
 public:
  Loader(ordb::Database* db, const mapping::MappedSchema* schema)
      : db_(db), schema_(schema) {}

  /// Creates one engine table per mapped table (idempotent failure if any
  /// already exists).
  [[nodiscard]] Status CreateTables();

  /// Shreds and bulk-inserts all documents; returns load statistics.
  [[nodiscard]] Result<LoadReport> Load(const std::vector<const xml::Node*>& documents,
                          const LoadOptions& options = {});

 private:
  ordb::Database* db_;
  const mapping::MappedSchema* schema_;
};

/// Maps a mapped-schema column type onto an engine type.
ordb::TypeId EngineType(mapping::ColumnType type);

}  // namespace xorator::shred

#endif  // XORATOR_SHRED_LOADER_H_
