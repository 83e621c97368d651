#ifndef XORATOR_ORDB_CATALOG_H_
#define XORATOR_ORDB_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "ordb/bptree.h"
#include "ordb/heap_file.h"
#include "ordb/tuple.h"

namespace xorator::ordb {

/// Per-column statistics gathered by RunStats (the engine's "runstats").
/// Kept in memory only: a reopened database has none until RunStats. XADT
/// columns get none (ndv stays 0).
struct ColumnStats {
  /// Longest most-common-values list RunStats keeps per column.
  static constexpr size_t kMaxMcv = 16;

  /// Estimated number of distinct values.
  double ndv = 0;
  /// Most common values as (Value::Hash, rows), most frequent first: up to
  /// kMaxMcv values that occur on more than one row.
  std::vector<std::pair<uint64_t, uint64_t>> mcv;

  /// Estimated fraction of a `rows`-row table whose value hashes to `hash`:
  /// its MCV count when listed, else the rows the list leaves spread evenly
  /// over the distinct values it leaves.
  double EqFraction(uint64_t hash, uint64_t rows) const;
};

/// Optimizer statistics for a table (the paper's runstats output).
struct TableStats {
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;
  bool collected = false;
};

/// A secondary index over one column.
struct IndexInfo {
  std::string name;
  std::string table;
  std::string column;
  int column_index = -1;
  TypeId key_type = TypeId::kInteger;
  std::unique_ptr<BPlusTree> tree;
};

/// A stored table: declared schema plus its heap file.
struct TableInfo {
  std::string name;
  TableSchema schema;
  std::unique_ptr<HeapFile> heap;
  TableStats stats;
  std::vector<IndexInfo*> indexes;  // borrowed from Catalog

  /// The index on `column`, or nullptr.
  const IndexInfo* FindIndex(std::string_view column) const;
  /// The index on the schema's column at `column_index`, or nullptr.
  const IndexInfo* FindIndex(size_t column_index) const;
};

/// In-memory catalog of tables and indexes. The catalog owns all table and
/// index metadata; heap files and trees reference the database's buffer
/// pool.
///
/// Thread safety: the registry itself (name map, table/index lists) is
/// guarded by an internal reader/writer mutex, so lookups may race
/// registrations safely. Entries are never removed, so a TableInfo* /
/// IndexInfo* stays valid for the catalog's lifetime. The *contents* of an
/// entry (heap, tree, stats) are NOT guarded here: statements that mutate
/// them run under the Database statement lock held exclusively, while
/// read-only statements hold it shared (DESIGN.md section 10).
class Catalog {
 public:
  [[nodiscard]] Result<TableInfo*> CreateTable(const std::string& name, TableSchema schema,
                                 BufferPool* pool) XO_EXCLUDES(mu_);
  [[nodiscard]] Result<IndexInfo*> CreateIndex(const std::string& index_name,
                                 const std::string& table,
                                 const std::string& column, BufferPool* pool)
      XO_EXCLUDES(mu_);

  /// Re-registers a table deserialized from the catalog page (its heap
  /// already exists in the file). Fails if the name is taken.
  [[nodiscard]] Result<TableInfo*> RestoreTable(std::unique_ptr<TableInfo> info)
      XO_EXCLUDES(mu_);
  /// Re-registers a deserialized index and links it to its table.
  [[nodiscard]] Result<IndexInfo*> RestoreIndex(std::unique_ptr<IndexInfo> info)
      XO_EXCLUDES(mu_);

  TableInfo* FindTable(std::string_view name) XO_EXCLUDES(mu_);
  const TableInfo* FindTable(std::string_view name) const XO_EXCLUDES(mu_);

  /// Snapshot of the registered tables, in creation order. The vector is
  /// an owned copy, but the TableInfo pointers inside it are non-owning:
  /// the Catalog owns the pointees, which stay valid until Clear() — the
  /// TryRecover-only teardown documented there.
  [[nodiscard]] std::vector<TableInfo*> tables() const XO_EXCLUDES(mu_);
  /// Snapshot of the registered indexes, in creation order. Same lifetime
  /// contract as tables(): Catalog-owned pointees, valid until Clear().
  [[nodiscard]] std::vector<IndexInfo*> indexes() const XO_EXCLUDES(mu_);

  /// Total pages/bytes across table heaps (the paper's "database size").
  uint64_t DataBytes() const XO_EXCLUDES(mu_);
  /// Total pages/bytes across indexes (the paper's "index size").
  uint64_t IndexBytes() const XO_EXCLUDES(mu_);

  /// Drops every table and index entry. This is the one exception to the
  /// "entries are never removed" contract above, reserved for
  /// Database::TryRecover(), which rebuilds the whole storage stack under
  /// the exclusive statement lock with no statements in flight — any
  /// TableInfo*/IndexInfo* held across a Clear() is dangling.
  void Clear() XO_EXCLUDES(mu_);

 private:
  TableInfo* FindTableLocked(std::string_view name) const
      XO_REQUIRES_SHARED(mu_);

  /// Guards the registry containers below (not the pointees; see the
  /// class comment). Leaf lock: nothing else is acquired while held.
  mutable xo::SharedMutex mu_{xo::LockRank::kCatalog};
  std::vector<std::unique_ptr<TableInfo>> tables_ XO_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<IndexInfo>> indexes_ XO_GUARDED_BY(mu_);
  std::map<std::string, TableInfo*, std::less<>> table_by_name_
      XO_GUARDED_BY(mu_);
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_CATALOG_H_
