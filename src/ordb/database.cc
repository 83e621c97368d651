#include "ordb/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "common/span.h"
#include "common/str_util.h"
#include "common/varint.h"
#include "ordb/row_codec.h"

namespace xorator::ordb {

namespace {

/// Process-wide record of the most recent destructor/Close() checkpoint,
/// stored as raw code+message (not a Status) so that nothing enforces a
/// check on the global itself at process exit.
xo::Mutex g_close_status_mu{xo::LockRank::kLeafCloseStatus};
StatusCode g_close_status_code XO_GUARDED_BY(g_close_status_mu) =
    StatusCode::kOk;
std::string g_close_status_message  // NOLINT(runtime/string)
    XO_GUARDED_BY(g_close_status_mu);

void RecordCloseStatus(const Status& s) XO_EXCLUDES(g_close_status_mu) {
  xo::MutexLock lock(&g_close_status_mu);
  g_close_status_code = s.code();
  g_close_status_message = s.message();
  if (!s.ok()) {
    std::fprintf(stderr, "xorator: close-time checkpoint failed: %s\n",
                 s.ToString().c_str());
  }
}

/// Meta-page catalog serialization (see DESIGN.md "Durability & fault
/// tolerance"). Everything is varints after the magic; strings are
/// length-prefixed.
constexpr uint64_t kCatalogMagic = 0x47544358;  // "XCTG"
constexpr uint64_t kCatalogVersion = 1;

void PutString(std::string* dst, std::string_view s) {
  PutVarint(dst, s.size());
  dst->append(s);
}

Result<std::string> GetString(std::string_view src, size_t* pos) {
  XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(src, pos));
  if (len > src.size() - *pos) {
    return Status::Corruption("meta page: string runs past the page");
  }
  std::string out(src.substr(*pos, len));
  *pos += len;
  return out;
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  size_t shown = 0;
  for (const Tuple& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows total)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  if (shown <= max_rows) {
    out += "(" + std::to_string(rows.size()) + " rows)\n";
  }
  return out;
}

std::string StatementReport::ToString() const {
  std::string out;
  if (guard.has_value()) out = guard->ToString();
  if (degraded.has_value() || health != HealthState::kHealthy ||
      quarantined_pages > 0) {
    // Resilience line (DESIGN.md §13): a clean strict statement has
    // nothing to report, so its text stays empty.
    const DegradedScan skipped = degraded.value_or(DegradedScan{});
    if (!out.empty()) out += "\n";
    out += "resilience: health=";
    out += HealthStateName(health);
    out += " quarantined=" + std::to_string(quarantined_pages) +
           " skipped_pages=" + std::to_string(skipped.skipped_pages) +
           " skipped_records=" + std::to_string(skipped.skipped_records) +
           " skipped_fragments=" + std::to_string(skipped.skipped_fragments);
  }
  return out;
}

Result<std::unique_ptr<Database>> Database::Open(const DbOptions& options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  // The database is not published yet, but the locked helpers below
  // require the statement lock; taking it here is free and lets the
  // analysis check Open() against the same capability as every other path.
  xo::WriterLock lock(&db->mu_);
  XO_RETURN_NOT_OK(db->BuildStorage());
  db->functions_ = FunctionRegistry::WithBuiltins();
  if (db->wal_ != nullptr) {
    if (db->pager_->page_count() == 0) {
      // Fresh database: claim page 0 as the meta page and commit the
      // empty catalog so even a never-used file reopens cleanly.
      XO_ASSIGN_OR_RETURN(PageRef meta, db->pool_->Create());
      if (meta.id() != 0) {
        return Status::Internal("meta page allocated as page " +
                                std::to_string(meta.id()) + ", not 0");
      }
      XO_RETURN_NOT_OK(meta.Release());
      XO_RETURN_NOT_OK(db->CheckpointLocked());
    } else {
      XO_RETURN_NOT_OK(db->LoadCatalog());
    }
  }
  db->opened_ = true;
  return db;
}

Database::~Database() {
  if (killed_.load(std::memory_order_relaxed)) return;
  xo::WriterLock lock(&mu_);
  if (opened_ && !closed_ && pool_ != nullptr) {
    // A destructor cannot return the checkpoint status, but it must not
    // swallow it either: record it for last_close_status() (which also
    // logs a failure to stderr).
    RecordCloseStatus(CheckpointLocked());
  }
}

Status Database::Checkpoint() {
  xo::WriterLock lock(&mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  if (pool_ == nullptr) return Status::OK();
  // A non-writable engine must never checkpoint: truncating the WAL would
  // destroy exactly the rollback evidence a later recovery needs, and a
  // Degraded-but-writable engine may still checkpoint what it can.
  XO_RETURN_NOT_OK(health_.CheckWritable());
  Status s = DoCheckpointLocked();
  if (!s.ok() && s.IsDegradable()) {
    // The commit point itself failed; durability is no longer guaranteed,
    // so mutations stop until TryRecover() re-verifies the stack.
    health_.ReportReadOnly("checkpoint failed: " + s.message());
  }
  return s;
}

Status Database::DoCheckpointLocked() {
  // Quiescence sentinel: a checkpoint runs under the exclusive statement
  // lock, so every PageRef guard must have been released by now. A live
  // pin here is a leak that would wedge eviction (debug builds only).
  assert(pool_->PinnedFrameCount() == 0 &&
         "checkpoint reached with PageRef guards still holding pins");
  if (wal_ == nullptr) return pool_->FlushAll();  // memory-backed
  XO_RETURN_NOT_OK(SaveCatalog());
  XO_RETURN_NOT_OK(pool_->FlushAll());
  XO_RETURN_NOT_OK(pager_->Flush());
  // Truncating the journal is the atomic commit: everything flushed above
  // is now the state the next Open() lands on.
  return wal_->Reset(pager_->page_count());
}

Status Database::Close() {
  xo::WriterLock lock(&mu_);
  if (closed_ || killed_.load(std::memory_order_relaxed)) return Status::OK();
  Status s = CheckpointLocked();
  closed_ = true;
  RecordCloseStatus(s);
  return s;
}

Status Database::last_close_status() {
  xo::MutexLock lock(&g_close_status_mu);
  return Status(g_close_status_code, g_close_status_message);
}

Status Database::SaveCatalog() {
  std::string blob;
  PutVarint(&blob, kCatalogMagic);
  PutVarint(&blob, kCatalogVersion);
  PutVarint(&blob, catalog_.tables().size());
  for (const auto& t : catalog_.tables()) {
    PutString(&blob, t->name);
    PutVarint(&blob, t->schema.size());
    for (const ColumnDef& c : t->schema.columns) {
      PutString(&blob, c.name);
      PutVarint(&blob, static_cast<uint64_t>(c.type));
    }
    PutVarint(&blob, t->heap->first_page());
    PutVarint(&blob, t->heap->last_page());
    PutVarint(&blob, t->heap->record_count());
    PutVarint(&blob, t->heap->page_count());
  }
  PutVarint(&blob, catalog_.indexes().size());
  for (const auto& i : catalog_.indexes()) {
    PutString(&blob, i->name);
    PutString(&blob, i->table);
    PutString(&blob, i->column);
    PutVarint(&blob, static_cast<uint64_t>(i->column_index));
    PutVarint(&blob, static_cast<uint64_t>(i->key_type));
    PutVarint(&blob, i->tree->root());
    PutVarint(&blob, i->tree->page_count());
    PutVarint(&blob, i->tree->entry_count());
  }
  if (blob.size() > kPageSize - kPageHeaderBytes) {
    return Status::Internal("catalog (" + std::to_string(blob.size()) +
                            " bytes) overflows the 8 KB meta page");
  }
  XO_ASSIGN_OR_RETURN(PageRef meta, pool_->Fetch(0));
  xo::MutableByteSpan page(meta.data(), kPageSize);
  RETURN_IF_ERROR(xo::FillZero(page, kPageHeaderBytes,
                               kPageSize - kPageHeaderBytes));
  RETURN_IF_ERROR(xo::CopyInto(page, kPageHeaderBytes, blob));
  meta.MarkDirty();
  return meta.Release();
}

Status Database::LoadCatalog() {
  std::string payload;
  {
    XO_ASSIGN_OR_RETURN(PageRef meta, pool_->Fetch(0));
    XO_ASSIGN_OR_RETURN(
        std::string_view body,
        xo::ViewBytes(xo::ByteSpan(meta.data(), kPageSize), kPageHeaderBytes,
                      kPageSize - kPageHeaderBytes));
    payload.assign(body);
    XO_RETURN_NOT_OK(meta.Release());
  }
  const std::string_view view(payload);
  const PageId pages = pager_->page_count();
  size_t pos = 0;
  XO_ASSIGN_OR_RETURN(uint64_t magic, GetVarint(view, &pos));
  if (magic != kCatalogMagic) {
    return Status::Corruption("meta page has no catalog (bad magic)");
  }
  XO_ASSIGN_OR_RETURN(uint64_t version, GetVarint(view, &pos));
  if (version != kCatalogVersion) {
    return Status::Corruption("catalog version " + std::to_string(version) +
                              " is not supported");
  }
  XO_ASSIGN_OR_RETURN(uint64_t table_count, GetVarint(view, &pos));
  for (uint64_t ti = 0; ti < table_count; ++ti) {
    auto info = std::make_unique<TableInfo>();
    XO_ASSIGN_OR_RETURN(info->name, GetString(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t col_count, GetVarint(view, &pos));
    for (uint64_t ci = 0; ci < col_count; ++ci) {
      ColumnDef col;
      XO_ASSIGN_OR_RETURN(col.name, GetString(view, &pos));
      XO_ASSIGN_OR_RETURN(uint64_t type, GetVarint(view, &pos));
      if (type > static_cast<uint64_t>(TypeId::kXadt)) {
        return Status::Corruption("catalog: column '" + col.name +
                                  "' has unknown type " +
                                  std::to_string(type));
      }
      col.type = static_cast<TypeId>(type);
      info->schema.columns.push_back(std::move(col));
    }
    XO_ASSIGN_OR_RETURN(uint64_t first, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t last, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t records, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t heap_pages, GetVarint(view, &pos));
    if (first >= pages || last >= pages) {
      return Status::Corruption("catalog: heap of '" + info->name +
                                "' points past the end of the file");
    }
    info->heap = std::make_unique<HeapFile>(
        pool_.get(), static_cast<PageId>(first), static_cast<PageId>(last),
        records, heap_pages);
    XO_RETURN_NOT_OK(catalog_.RestoreTable(std::move(info)).status());
  }
  XO_ASSIGN_OR_RETURN(uint64_t index_count, GetVarint(view, &pos));
  for (uint64_t ii = 0; ii < index_count; ++ii) {
    auto info = std::make_unique<IndexInfo>();
    XO_ASSIGN_OR_RETURN(info->name, GetString(view, &pos));
    XO_ASSIGN_OR_RETURN(info->table, GetString(view, &pos));
    XO_ASSIGN_OR_RETURN(info->column, GetString(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t col, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t type, GetVarint(view, &pos));
    if (type > static_cast<uint64_t>(TypeId::kXadt)) {
      return Status::Corruption("catalog: index '" + info->name +
                                "' has unknown key type " +
                                std::to_string(type));
    }
    info->column_index = static_cast<int>(col);
    info->key_type = static_cast<TypeId>(type);
    XO_ASSIGN_OR_RETURN(uint64_t root, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t tree_pages, GetVarint(view, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t entries, GetVarint(view, &pos));
    if (root >= pages) {
      return Status::Corruption("catalog: index '" + info->name +
                                "' roots past the end of the file");
    }
    info->tree = std::make_unique<BPlusTree>(
        pool_.get(), static_cast<PageId>(root), tree_pages, entries);
    XO_RETURN_NOT_OK(catalog_.RestoreIndex(std::move(info)).status());
  }
  return Status::OK();
}

Database::GuardRegistration::GuardRegistration(Database* db, uint64_t query_id,
                                               QueryGuard* guard)
    : db_(db), query_id_(guard != nullptr ? query_id : 0) {
  if (query_id_ == 0) return;
  xo::MutexLock lock(&db_->guards_mu_);
  db_->guards_[query_id_] = guard;
}

Database::GuardRegistration::~GuardRegistration() {
  if (query_id_ == 0) return;
  xo::MutexLock lock(&db_->guards_mu_);
  db_->guards_.erase(query_id_);
}

Status Database::Cancel(uint64_t query_id) {
  xo::MutexLock lock(&guards_mu_);
  auto it = guards_.find(query_id);
  if (it == guards_.end()) {
    return Status::NotFound("no in-flight statement registered as query id " +
                            std::to_string(query_id));
  }
  it->second->Cancel();
  return Status::OK();
}

Result<QueryResult> Database::RunSelect(const sql::SelectStmt& stmt,
                                        bool explain_only, QueryGuard* guard,
                                        bool skip_quarantined) {
  Planner planner(&catalog_, &functions_, options_.planner);
  XO_ASSIGN_OR_RETURN(OperatorPtr plan, planner.PlanSelect(stmt));
  QueryResult result;
  if (explain_only) {
    if (guard != nullptr) result.report.guard = guard->Stats();
    std::string text = plan->Explain();
    const std::string report = result.report.ToString();
    if (!report.empty()) text += "\n" + report;
    result.columns = {"plan"};
    result.rows.push_back({Value::Varchar(std::move(text))});
    return result;
  }
  for (const ColumnMeta& c : plan->columns()) result.columns.push_back(c.name);

  DegradedScan degraded;
  ExecContext ctx;
  ctx.guard = guard;
  ctx.degraded = skip_quarantined ? &degraded : nullptr;
  // The marshaled-UDF ABI carries no context, so UDF bodies and the XADT
  // fragment scanner reach the guard thread-locally (DESIGN.md §12); the
  // degraded scan travels the same way (DESIGN.md §13).
  ScopedGuardBind bind(guard);
  ScopedDegradedScanBind degraded_bind(ctx.degraded);
  // Close() must run on the error path too: a query stopped by its guard
  // (or by any mid-scan failure) has to release every pin and every
  // tracked-arena charge before the error reaches the caller.
  Status exec = plan->Open(&ctx);
  if (exec.ok()) {
    Tuple row;
    while (true) {
      auto ok = plan->Next(&row);
      if (!ok.ok()) {
        exec = ok.status();
        break;
      }
      if (!*ok) break;
      // Every operator rewrites its output row in full, so the row moves.
      result.rows.push_back(std::move(row));
      if (stmt.limit >= 0 &&
          result.rows.size() >= static_cast<size_t>(stmt.limit)) {
        break;
      }
    }
  }
  plan->Close();
  XO_RETURN_NOT_OK(exec);
  result.udf_stats = ctx.udf_stats;
  if (guard != nullptr) result.report.guard = guard->Stats();
  result.report.health = health_.state();
  result.report.quarantined_pages = pool_->stats().quarantined_pages;
  if (skip_quarantined) result.report.degraded = degraded;
  return result;
}

Result<QueryResult> Database::Query(const std::string& sql_text) {
  return Query(sql_text, QueryOptions{});
}

Result<QueryResult> Database::Query(const std::string& sql_text,
                                    const QueryOptions& options) {
  // Parsing is stateless, so it runs before any lock; the statement kind
  // then picks the side of the statement lock. SELECT/EXPLAIN take it
  // shared and run in parallel with other readers; everything else is
  // exclusive.
  XO_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(sql_text));
  // The guard's clock starts here, so the deadline covers time spent
  // queued on the statement lock; registration also happens before the
  // lock, so a statement stuck behind a writer is already cancellable.
  QueryGuard guard(options.deadline_millis, options.max_memory_bytes);
  QueryGuard* g = options.guarded() ? &guard : nullptr;
  GuardRegistration registration(this, options.query_id, g);
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kExplain: {
      XO_RETURN_NOT_OK(health_.CheckUsable());
      xo::ReaderLock lock(&mu_);
      return RunSelect(stmt.select,
                       stmt.kind == sql::Statement::Kind::kExplain, g,
                       options.skip_quarantined);
    }
    case sql::Statement::Kind::kPragma: {
      // Pragmas are maintenance reads: they run on any usable engine —
      // that is their point — and only touch internally-synchronized
      // state, so the shared side of the lock suffices. The guard binds
      // thread-locally so a scrub slice is deadline/cancel-paced.
      XO_RETURN_NOT_OK(health_.CheckUsable());
      xo::ReaderLock lock(&mu_);
      ScopedGuardBind bind(g);
      return RunPragma(stmt.pragma);
    }
    default: {
      // Fail-fast gate (DESIGN.md §13): a ReadOnly/Failed engine rejects
      // mutations before queueing on the statement lock.
      XO_RETURN_NOT_OK(health_.CheckWritable());
      xo::WriterLock lock(&mu_);
      // Write statements poll the thread-local binding (BulkInsertLocked,
      // RunDelete) rather than an ExecContext.
      ScopedGuardBind bind(g);
      return ExecuteStmtLocked(stmt);
    }
  }
}

Result<QueryResult> Database::ExecuteStmtLocked(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kExplain:
    case sql::Statement::Kind::kPragma:
      // Read-only kinds never reach here: Query() routes them through the
      // shared side of the lock (see the dispatch above).
      return Status::Internal("read-only statement on the write path");
    case sql::Statement::Kind::kCreateTable: {
      TableSchema schema;
      for (const auto& [name, type] : stmt.create_table.columns) {
        schema.columns.push_back({name, type});
      }
      XO_RETURN_NOT_OK(
          CreateTableLocked(stmt.create_table.name, std::move(schema)));
      return QueryResult{};
    }
    case sql::Statement::Kind::kCreateIndex:
      XO_RETURN_NOT_OK(CreateIndexLocked(stmt.create_index.table,
                                         stmt.create_index.column));
      return QueryResult{};
    case sql::Statement::Kind::kInsert: {
      std::vector<Tuple> rows;
      const TableInfo* t = catalog_.FindTable(stmt.insert.table);
      if (t == nullptr) {
        return Status::NotFound("unknown table '" + stmt.insert.table + "'");
      }
      for (const auto& literals : stmt.insert.rows) {
        if (literals.size() != t->schema.size()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        Tuple row;
        for (size_t i = 0; i < literals.size(); ++i) {
          const Value& v = literals[i];
          TypeId want = t->schema.columns[i].type;
          if (v.is_null()) {
            row.push_back(v);
          } else if (want == TypeId::kVarchar &&
                     v.type() == TypeId::kVarchar) {
            row.push_back(v);
          } else if (want == TypeId::kXadt && v.type() == TypeId::kVarchar) {
            // Raw XML text literal into an XADT column.
            row.push_back(Value::Xadt("R" + v.AsString()));
          } else if (want == TypeId::kInteger &&
                     v.type() == TypeId::kInteger) {
            row.push_back(v);
          } else if (want == TypeId::kDouble) {
            row.push_back(Value::Double(v.AsDouble()));
          } else if (want == TypeId::kBoolean &&
                     v.type() == TypeId::kInteger) {
            row.push_back(Value::Bool(v.AsInt() != 0));
          } else {
            return Status::InvalidArgument(
                "cannot store a " + std::string(TypeName(v.type())) +
                " into column '" + t->schema.columns[i].name + "'");
          }
        }
        rows.push_back(std::move(row));
      }
      XO_RETURN_NOT_OK(BulkInsertLocked(stmt.insert.table, rows));
      return QueryResult{};
    }
    case sql::Statement::Kind::kDelete:
      return RunDelete(stmt.del);
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::Execute(const std::string& sql_text) {
  return Query(sql_text).status();
}

Status Database::Execute(const std::string& sql_text,
                         const QueryOptions& options) {
  return Query(sql_text, options).status();
}

Result<std::string> Database::Explain(const std::string& sql_text) {
  XO_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(sql_text));
  if (stmt.kind != sql::Statement::Kind::kSelect &&
      stmt.kind != sql::Statement::Kind::kExplain) {
    return Status::InvalidArgument("EXPLAIN requires a SELECT");
  }
  xo::ReaderLock lock(&mu_);
  XO_ASSIGN_OR_RETURN(QueryResult r,
                      RunSelect(stmt.select, /*explain_only=*/true));
  return r.rows[0][0].AsString();
}

Status Database::CreateTable(const std::string& name, TableSchema schema) {
  XO_RETURN_NOT_OK(health_.CheckWritable());
  xo::WriterLock lock(&mu_);
  return CreateTableLocked(name, std::move(schema));
}

Status Database::CreateTableLocked(const std::string& name,
                                   TableSchema schema) {
  return catalog_.CreateTable(name, std::move(schema), pool_.get()).status();
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  XO_RETURN_NOT_OK(health_.CheckWritable());
  xo::WriterLock lock(&mu_);
  return CreateIndexLocked(table, column);
}

Status Database::CreateIndexLocked(const std::string& table,
                                   const std::string& column) {
  std::string index_name = "idx_" + table + "_" + column;
  XO_ASSIGN_OR_RETURN(IndexInfo * index,
                      catalog_.CreateIndex(index_name, table, column,
                                           pool_.get()));
  // Backfill from existing rows.
  TableInfo* t = catalog_.FindTable(table);
  HeapFile::Scanner scanner = t->heap->Scan();
  Rid rid;
  std::string record;
  while (true) {
    XO_ASSIGN_OR_RETURN(bool ok, scanner.Next(&rid, &record));
    if (!ok) break;
    // Read the one column in place: decoding whole rows would copy every
    // XADT fragment.
    XO_ASSIGN_OR_RETURN(RowView row, RowView::Parse(t->schema, record));
    const ValueView v = row.column(static_cast<size_t>(index->column_index));
    if (v.is_null()) continue;
    uint64_t key = index->key_type == TypeId::kInteger
                       ? IntIndexKey(v.AsInt())
                       : Hash64(v.bytes());
    XO_RETURN_NOT_OK(index->tree->Insert(key, rid.Encode()));
  }
  return Status::OK();
}

Status Database::BulkInsert(const std::string& table,
                            const std::vector<Tuple>& rows) {
  XO_RETURN_NOT_OK(health_.CheckWritable());
  xo::WriterLock lock(&mu_);
  return BulkInsertLocked(table, rows);
}

Status Database::BulkInsertLocked(const std::string& table,
                                  const std::vector<Tuple>& rows) {
  TableInfo* t = catalog_.FindTable(table);
  if (t == nullptr) return Status::NotFound("unknown table '" + table + "'");
  // Between-row cancellation point. Every row is inserted atomically with
  // its index entries, so aborting here leaves the table consistent: the
  // rows already inserted stay, the rest never happen (the loader reports
  // the split; see shred::LoadReport).
  QueryGuard* guard = CurrentGuard();
  std::string record;
  for (const Tuple& row : rows) {
    if (guard != nullptr) XO_RETURN_NOT_OK(guard->CheckPoint());
    if (row.size() != t->schema.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + table + "'");
    }
    record.clear();
    EncodeTuple(t->schema, row, &record);
    XO_ASSIGN_OR_RETURN(Rid rid, t->heap->Insert(record));
    for (IndexInfo* index : t->indexes) {
      const Value& v = row[index->column_index];
      if (v.is_null()) continue;
      XO_RETURN_NOT_OK(
          index->tree->Insert(IndexKey(index->key_type, v), rid.Encode()));
    }
  }
  return Status::OK();
}

Status Database::RunStats() {
  XO_RETURN_NOT_OK(health_.CheckWritable());
  xo::WriterLock lock(&mu_);
  using Count = std::pair<uint64_t, uint64_t>;  // (value hash, rows)
  auto more_common = [](const Count& a, const Count& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  for (TableInfo* t : catalog_.tables()) {
    std::vector<std::unordered_map<uint64_t, uint64_t>> counts(
        t->schema.size());
    HeapFile::Scanner scanner = t->heap->Scan();
    Rid rid;
    std::string record;
    uint64_t rows = 0;
    while (true) {
      XO_ASSIGN_OR_RETURN(bool ok, scanner.Next(&rid, &record));
      if (!ok) break;
      ++rows;
      XO_ASSIGN_OR_RETURN(RowView row, RowView::Parse(t->schema, record));
      for (size_t i = 0; i < t->schema.size(); ++i) {
        // XADT columns get no statistics: no plan or advisor decision reads
        // them, and hashing every fragment would dominate the scan.
        if (t->schema.columns[i].type == TypeId::kXadt) continue;
        const uint64_t hash = row.column(i).Hash();
        // Cap the per-column map so runstats stays cheap on huge tables;
        // values already in it keep counting.
        auto it = counts[i].find(hash);
        if (it != counts[i].end()) {
          ++it->second;
        } else if (counts[i].size() < 1u << 20) {
          counts[i].emplace(hash, 1);
        }
      }
    }
    t->stats.row_count = rows;
    for (size_t i = 0; i < t->schema.size(); ++i) {
      ColumnStats& cs = t->stats.columns[i];
      cs.ndv = static_cast<double>(counts[i].size());
      cs.mcv.resize(std::min(counts[i].size(), ColumnStats::kMaxMcv));
      std::partial_sort_copy(counts[i].begin(), counts[i].end(),
                             cs.mcv.begin(), cs.mcv.end(), more_common);
      while (!cs.mcv.empty() && cs.mcv.back().second < 2) cs.mcv.pop_back();
    }
    t->stats.collected = true;
  }
  return Status::OK();
}

namespace {

/// A column compared for equality, with the literal it is compared
/// against (nullptr when the other side is not a literal, e.g. a join).
struct Equality {
  std::string_view column;
  const Value* literal = nullptr;
};

void CollectEqualities(const sql::AstExpr& e, std::vector<Equality>* out) {
  using sql::AstExpr;
  if (e.kind == AstExpr::Kind::kCompare && e.op == CompareOp::kEq) {
    for (size_t i = 0; i < 2; ++i) {
      const AstExpr& side = *e.children[i];
      const AstExpr& other = *e.children[1 - i];
      if (side.kind != AstExpr::Kind::kColumn) continue;
      out->push_back({side.name, other.kind == AstExpr::Kind::kLiteral
                                     ? &other.literal
                                     : nullptr});
    }
  }
  for (const auto& c : e.children) CollectEqualities(*c, out);
}

/// True when `plan` reads `index` through an IndexScan.
bool PlanScansIndex(const Operator& plan, const IndexInfo* index) {
  const auto* scan = dynamic_cast<const IndexScanOp*>(&plan);
  if (scan != nullptr && scan->index() == index) return true;
  for (const Operator* child : plan.Children()) {
    if (PlanScansIndex(*child, index)) return true;
  }
  return false;
}

}  // namespace

Result<QueryResult> Database::RunDelete(const sql::DeleteStmt& stmt) {
  TableInfo* t = catalog_.FindTable(stmt.table);
  if (t == nullptr) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  // The WHERE binds exactly as a SELECT over the table would, so both
  // statements reject the same names and match the same rows.
  ExprPtr where;
  if (stmt.where != nullptr) {
    Planner planner(&catalog_, &functions_, options_.planner);
    XO_ASSIGN_OR_RETURN(where, planner.BindPredicate(*stmt.where, *t));
  }
  std::vector<std::pair<Rid, Tuple>> doomed;
  // Guard polls and charges cover only the scan phase: once the apply loop
  // below starts mutating the heap, finishing is cheaper and cleaner than
  // stopping with half the matches deleted.
  ExecContext ctx;
  ctx.guard = CurrentGuard();
  TrackedArena doomed_arena(ctx.guard);
  HeapFile::Scanner scanner = t->heap->Scan();
  Rid rid;
  std::string record;
  while (true) {
    XO_RETURN_NOT_OK(ctx.CheckPoint());
    XO_ASSIGN_OR_RETURN(bool ok, scanner.Next(&rid, &record));
    if (!ok) break;
    XO_ASSIGN_OR_RETURN(Tuple row, DecodeTuple(t->schema, record));
    bool match = true;
    if (where != nullptr) {
      XO_ASSIGN_OR_RETURN(Value v, where->Eval(row, &ctx));
      match = !v.is_null() && v.AsBool();
    }
    if (match) {
      XO_RETURN_NOT_OK(doomed_arena.Charge(record.size() + sizeof(Rid)));
      doomed.emplace_back(rid, std::move(row));
    }
  }
  for (auto& [doomed_rid, row] : doomed) {
    XO_RETURN_NOT_OK(t->heap->Delete(doomed_rid));
    for (IndexInfo* index : t->indexes) {
      const Value& v = row[index->column_index];
      if (v.is_null()) continue;
      XO_RETURN_NOT_OK(index->tree->Delete(IndexKey(index->key_type, v),
                                           doomed_rid.Encode()));
    }
  }
  QueryResult result;
  result.columns = {"deleted"};
  result.rows.push_back({Value::Int(static_cast<int64_t>(doomed.size()))});
  result.udf_stats = ctx.udf_stats;
  return result;
}

Status Database::AdviseIndexes(const std::vector<std::string>& queries) {
  XO_RETURN_NOT_OK(health_.CheckWritable());
  xo::WriterLock lock(&mu_);
  using Column = std::pair<std::string, std::string>;  // (table, column)
  Planner planner(&catalog_, &functions_, options_.planner);
  std::vector<sql::Statement> selects;
  std::set<Column> wanted;
  std::set<Column> rare_literal_only;
  for (const std::string& q : queries) {
    auto parsed = sql::ParseSql(q);
    if (!parsed.ok()) continue;
    if (parsed->kind != sql::Statement::Kind::kSelect) continue;
    const sql::SelectStmt& stmt = parsed->select;
    if (stmt.where == nullptr) continue;
    // Names resolve exactly as the planner resolves them.
    auto items = planner.BindFrom(stmt);
    if (!items.ok()) continue;
    const Scope scope(&*items);
    std::vector<Equality> equalities;
    CollectEqualities(*stmt.where, &equalities);
    for (const Equality& eq : equalities) {
      auto res = scope.Resolve(eq.column);
      if (!res.ok()) continue;
      const TableInfo* t = (*items)[res->item].table;
      if (t == nullptr) continue;  // a table function's output
      const ColumnDef& def = t->schema.columns[res->column];
      if (def.type == TypeId::kXadt) continue;
      // Like DB2's Index Wizard, skip columns where an equality match is
      // unselective: a join column with more than ~50 rows per distinct
      // value, a literal matching more than 2% of the rows.
      // Small tables and tables without statistics pass both rules.
      const ColumnStats& cs = t->stats.columns[res->column];
      const uint64_t rows = t->stats.row_count;
      const bool exempt = !t->stats.collected || rows <= 100;
      const bool ndv_selective =
          exempt || cs.ndv >= static_cast<double>(rows) * 0.02;
      if (eq.literal == nullptr) {
        if (ndv_selective) wanted.emplace(t->name, def.name);
      } else if (exempt || cs.EqFraction(eq.literal->Hash(), rows) <= 0.02) {
        (ndv_selective ? wanted : rare_literal_only).emplace(t->name, def.name);
      }
    }
    selects.push_back(std::move(*parsed));
  }
  for (const auto& [table, col] : wanted) {
    const TableInfo* t = catalog_.FindTable(table);
    if (t != nullptr && t->FindIndex(col) == nullptr) {
      XO_RETURN_NOT_OK(CreateIndexLocked(table, col));
    }
  }
  // A low-NDV column wanted only for a rare literal is built only when a
  // plan would use it (DB2's Index Wizard plans against virtual indexes the
  // same way): a treeless stub stands in for the index while every advised
  // statement is planned, never opened.
  for (const auto& [table, col] : rare_literal_only) {
    TableInfo* t = catalog_.FindTable(table);
    if (t->FindIndex(col) != nullptr) continue;
    IndexInfo stub;
    stub.name = "what-if";
    stub.table = table;
    stub.column = col;
    stub.column_index = t->schema.ColumnIndex(col);
    stub.key_type = t->schema.columns[stub.column_index].type;
    t->indexes.push_back(&stub);
    bool used = false;
    for (const sql::Statement& s : selects) {
      auto plan = planner.PlanSelect(s.select);
      if (plan.ok() && PlanScansIndex(**plan, &stub)) {
        used = true;
        break;
      }
    }
    t->indexes.pop_back();
    if (used) XO_RETURN_NOT_OK(CreateIndexLocked(table, col));
  }
  return Status::OK();
}

// ----------------------------------------- failure containment (DESIGN.md §13)

Status Database::BuildStorage() {
  std::unique_ptr<Pager> pager;
  if (options_.path.empty()) {
    pager = std::make_unique<MemoryPager>();
  } else {
    // Roll back any interrupted epoch before the pager sees the file, so
    // torn final pages are healed before the size/alignment check.
    const std::string wal_path = options_.path + ".wal";
    XO_RETURN_NOT_OK(RecoverFromWal(options_.path, wal_path).status());
    XO_ASSIGN_OR_RETURN(auto file_pager, FilePager::Open(options_.path));
    pager = std::move(file_pager);
    XO_ASSIGN_OR_RETURN(wal_, Wal::Open(wal_path, pager->page_count()));
  }
  if (options_.fault.has_value()) {
    // Wraps with the *current* schedule: tests typically clear the fault
    // options through mutable_options() before asking TryRecover() to
    // rebuild.
    auto faulty =
        std::make_unique<FaultInjectingPager>(std::move(pager), *options_.fault);
    fault_pager_ = faulty.get();
    pager = std::move(faulty);
    if (wal_ != nullptr) {
      // Per-file fault scoping: WAL-append faults are drawn from the fault
      // pager's independent WAL stream (the WAL itself is an ofstream, not
      // a Pager, so it cannot be wrapped).
      wal_->set_fault_hook(
          [fp = fault_pager_] { return fp->DrawWalAppend(); });
    }
  }
  pager_ = std::move(pager);
  pool_ =
      std::make_unique<BufferPool>(pager_.get(), options_.buffer_pool_pages);
  pool_->set_wal(wal_.get());
  pool_->set_health(&health_);
  return Status::OK();
}

Status Database::TryRecover() {
  xo::WriterLock lock(&mu_);
  if (health_.state() == HealthState::kHealthy) return Status::OK();
  XO_RETURN_NOT_OK(health_.CheckUsable());  // kFailed is terminal
  if (pool_ == nullptr) {
    return Status::Unavailable("no storage stack to recover");
  }
  assert(pool_->PinnedFrameCount() == 0 &&
         "TryRecover reached with PageRef guards still holding pins");
  pool_->ClearQuarantine();
  if (wal_ == nullptr) {
    // Memory-backed: there is no durable state to re-verify; flushing the
    // pool against the memory pager proves the write path works again.
    XO_RETURN_NOT_OK(pool_->FlushAll());
    if (!health_.Recover()) {
      return Status::Unavailable("engine failed while recovering");
    }
    return Status::OK();
  }
  // File-backed: tear the whole storage stack down and re-run the Open
  // sequence. Dirty frames are dropped deliberately — the WAL rolls the
  // file back to the last checkpoint, the only state known to be sound.
  catalog_.Clear();
  pool_.reset();
  wal_.reset();
  fault_pager_ = nullptr;
  pager_.reset();
  opened_ = false;
  Status rebuilt = BuildStorage();
  if (rebuilt.ok() && pager_->page_count() > 0) rebuilt = LoadCatalog();
  if (!rebuilt.ok()) {
    // The stack is gone (possibly partially null); only a reopen helps.
    // Queries fail fast via CheckUsable rather than dereferencing nulls.
    health_.ReportFailed("recovery failed: " + rebuilt.message());
    return rebuilt;
  }
  opened_ = true;
  if (!health_.Recover()) {
    return Status::Unavailable("engine failed while recovering");
  }
  return Status::OK();
}

Result<ScrubReport> Database::Scrub(uint64_t max_pages) {
  XO_RETURN_NOT_OK(health_.CheckUsable());
  xo::ReaderLock lock(&mu_);
  if (pool_ == nullptr) {
    return Status::Unavailable("no storage stack attached");
  }
  return pool_->ScrubSlice(max_pages);
}

std::vector<std::pair<std::string, std::string>>
Database::ResilienceStatsLocked() {
  const HealthSnapshot hs = health_.Snapshot();
  const BufferPoolStats ps =
      pool_ != nullptr ? pool_->stats() : BufferPoolStats{};
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("health", std::string(HealthStateName(hs.state)));
  rows.emplace_back("health_detail", hs.detail);
  rows.emplace_back("health_transitions", std::to_string(hs.transitions));
  rows.emplace_back("io_retries", std::to_string(ps.retries));
  rows.emplace_back("checksum_failures", std::to_string(ps.checksum_failures));
  rows.emplace_back("quarantined_pages", std::to_string(ps.quarantined_pages));
  rows.emplace_back("quarantine_hits", std::to_string(ps.quarantine_hits));
  rows.emplace_back("scrub_pages_scanned",
                    std::to_string(ps.scrub_pages_scanned));
  rows.emplace_back("scrub_pages_bad", std::to_string(ps.scrub_pages_bad));
  rows.emplace_back("scrub_passes", std::to_string(ps.scrub_passes));
  return rows;
}

std::vector<std::pair<std::string, std::string>> Database::ResilienceStats() {
  xo::ReaderLock lock(&mu_);
  return ResilienceStatsLocked();
}

Result<QueryResult> Database::RunPragma(const sql::PragmaStmt& stmt) {
  if (EqualsIgnoreCase(stmt.name, "health")) {
    QueryResult result;
    result.columns = {"name", "value"};
    for (auto& [name, value] : ResilienceStatsLocked()) {
      result.rows.push_back(
          {Value::Varchar(std::move(name)), Value::Varchar(std::move(value))});
    }
    return result;
  }
  if (EqualsIgnoreCase(stmt.name, "scrub")) {
    if (pool_ == nullptr) {
      return Status::Unavailable("no storage stack attached");
    }
    uint64_t budget = kScrubSlicePages;
    if (stmt.has_arg) {
      if (stmt.arg <= 0) {
        return Status::InvalidArgument("PRAGMA scrub(n) needs n > 0");
      }
      budget = static_cast<uint64_t>(stmt.arg);
    }
    XO_ASSIGN_OR_RETURN(ScrubReport report, pool_->ScrubSlice(budget));
    QueryResult result;
    result.columns = {"pages_scanned", "pages_verified", "pages_resident",
                      "pages_bad",     "cursor",         "wrapped"};
    result.rows.push_back(
        {Value::Int(static_cast<int64_t>(report.pages_scanned)),
         Value::Int(static_cast<int64_t>(report.pages_verified)),
         Value::Int(static_cast<int64_t>(report.pages_resident)),
         Value::Int(static_cast<int64_t>(report.pages_bad)),
         Value::Int(static_cast<int64_t>(report.cursor)),
         Value::Bool(report.wrapped)});
    return result;
  }
  if (EqualsIgnoreCase(stmt.name, "stats")) {
    QueryResult result;
    result.columns = {"table", "column", "rows", "ndv", "mcv_rows",
                      "index_pages"};
    for (const TableInfo* t : catalog_.tables()) {
      for (size_t i = 0; i < t->schema.size(); ++i) {
        const ColumnDef& c = t->schema.columns[i];
        if (c.type == TypeId::kXadt) continue;
        const ColumnStats& cs = t->stats.columns[i];
        std::string mcv;
        for (const auto& [hash, rows] : cs.mcv) {
          mcv += (mcv.empty() ? "" : ",") + std::to_string(rows);
        }
        const IndexInfo* index = t->FindIndex(c.name);
        const uint64_t index_pages =
            index == nullptr ? 0 : index->tree->page_count();
        result.rows.push_back(
            {Value::Varchar(t->name), Value::Varchar(c.name),
             Value::Int(static_cast<int64_t>(t->stats.row_count)),
             Value::Int(static_cast<int64_t>(cs.ndv)),
             Value::Varchar(std::move(mcv)),
             Value::Int(static_cast<int64_t>(index_pages))});
      }
    }
    return result;
  }
  return Status::InvalidArgument(
      "unknown pragma '" + stmt.name +
      "' (try PRAGMA health, PRAGMA scrub or PRAGMA stats)");
}

}  // namespace xorator::ordb
