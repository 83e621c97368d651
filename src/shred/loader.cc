#include "shred/loader.h"

#include "common/timer.h"
#include "shred/shredder.h"
#include "xadt/xadt.h"

namespace xorator::shred {

namespace {

// Documents trial-shredded both ways to choose the XADT representation.
constexpr size_t kCompressionSampleDocs = 3;

}  // namespace

ordb::TypeId EngineType(mapping::ColumnType type) {
  switch (type) {
    case mapping::ColumnType::kInteger:
      return ordb::TypeId::kInteger;
    case mapping::ColumnType::kVarchar:
      return ordb::TypeId::kVarchar;
    case mapping::ColumnType::kXadt:
      return ordb::TypeId::kXadt;
  }
  return ordb::TypeId::kVarchar;
}

Status Loader::CreateTables() {
  for (const mapping::TableSpec& table : schema_->tables) {
    ordb::TableSchema schema;
    for (const mapping::ColumnSpec& col : table.columns) {
      schema.columns.push_back({col.name, EngineType(col.type)});
    }
    XO_RETURN_NOT_OK(db_->CreateTable(table.name, std::move(schema)));
  }
  return Status::OK();
}

Result<LoadReport> Loader::Load(const std::vector<const xml::Node*>& documents,
                                const LoadOptions& options) {
  LoadReport report;
  // Decide the XADT representation by trial-shredding sample documents both
  // ways and comparing total XADT bytes (the paper's 20% rule).
  bool schema_has_xadt = false;
  for (const mapping::TableSpec& t : schema_->tables) {
    for (const mapping::ColumnSpec& c : t.columns) {
      if (c.type == mapping::ColumnType::kXadt) schema_has_xadt = true;
    }
  }
  bool compress = options.force_compression;
  if (schema_has_xadt && !options.force_compression && !options.force_raw) {
    size_t samples = std::min(kCompressionSampleDocs, documents.size());
    uint64_t raw_bytes = 0;
    uint64_t compressed_bytes = 0;
    for (size_t pass = 0; pass < 2; ++pass) {
      Shredder shredder(schema_, /*use_compression=*/pass == 1);
      RowBatch batch;
      for (size_t d = 0; d < samples; ++d) {
        XO_RETURN_NOT_OK(shredder.Shred(*documents[d], &batch));
      }
      uint64_t bytes = 0;
      for (const auto& [table, rows] : batch) {
        for (const ordb::Tuple& row : rows) {
          for (const ordb::Value& v : row) {
            if (v.type() == ordb::TypeId::kXadt) bytes += v.AsString().size();
          }
        }
      }
      (pass == 0 ? raw_bytes : compressed_bytes) = bytes;
    }
    compress = xadt::ChooseCompression(raw_bytes, compressed_bytes);
  }
  report.used_compression = compress;

  Timer timer;
  // Bind the batch guard thread-locally so the per-row checkpoints inside
  // Database::BulkInsert (and any XADT scans during shredding) poll it;
  // the between-document poll below is the loader's own cadence.
  ordb::ScopedGuardBind bind(options.guard);
  Shredder shredder(schema_, compress);
  for (size_t d = 0; d < documents.size(); ++d) {
    // Per-document fault isolation: one bad document (malformed structure,
    // or a storage error while inserting its rows) is recorded and skipped
    // rather than sinking the whole batch. Rows of the failed document
    // already inserted into earlier tables stay — the engine has no
    // transactions below Checkpoint() granularity.
    Timer doc_timer;
    Status doc_status;
    if (options.guard != nullptr) doc_status = options.guard->CheckPoint();
    RowBatch batch;
    if (doc_status.ok()) doc_status = shredder.Shred(*documents[d], &batch);
    if (doc_status.ok()) {
      for (auto& [table, rows] : batch) {
        doc_status = db_->BulkInsert(table, rows);
        if (!doc_status.ok()) break;
        report.tuples += rows.size();
      }
    }
    report.doc_millis.push_back(doc_timer.ElapsedMillis());
    if (!doc_status.ok()) {
      if (ordb::QueryGuard::IsStopCode(doc_status.code())) {
        // A guard stop is latched — every later document would fail the
        // same way — so it ends the batch, counted apart from skips.
        report.stopped_code = doc_status.code();
        report.stopped_message = doc_status.message();
        ++report.cancelled;
        break;
      }
      if (options.stop_on_error) return doc_status;
      ++report.skipped;
      report.errors.push_back({d, std::move(doc_status)});
      continue;
    }
    ++report.documents;
  }
  report.load_millis = timer.ElapsedMillis();
  return report;
}

}  // namespace xorator::shred
