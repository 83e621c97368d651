#include "ordb/catalog.h"

namespace xorator::ordb {

double ColumnStats::EqFraction(uint64_t hash, uint64_t rows) const {
  if (rows == 0) return 0;
  uint64_t listed_rows = 0;
  for (const auto& [value, count] : mcv) {
    if (value == hash) {
      return static_cast<double>(count) / static_cast<double>(rows);
    }
    listed_rows += count;
  }
  const double other_values = ndv - static_cast<double>(mcv.size());
  if (other_values <= 0 || listed_rows >= rows) return 0;
  return static_cast<double>(rows - listed_rows) / other_values /
         static_cast<double>(rows);
}

const IndexInfo* TableInfo::FindIndex(std::string_view column) const {
  for (const IndexInfo* idx : indexes) {
    if (idx->column == column) return idx;
  }
  return nullptr;
}

const IndexInfo* TableInfo::FindIndex(size_t column_index) const {
  for (const IndexInfo* idx : indexes) {
    if (static_cast<size_t>(idx->column_index) == column_index) return idx;
  }
  return nullptr;
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        TableSchema schema, BufferPool* pool) {
  // The heap pages are allocated before taking the registry lock so the
  // buffer-pool mutex is never acquired under mu_ (lock hierarchy: the
  // catalog mutex is a leaf). A lost race on the name check only costs the
  // loser its freshly created (empty) heap.
  XO_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool));
  auto info = std::make_unique<TableInfo>();
  info->name = name;
  info->schema = std::move(schema);
  info->heap = std::make_unique<HeapFile>(heap);
  info->stats.columns.resize(info->schema.size());
  TableInfo* raw = info.get();
  xo::WriterLock lock(&mu_);
  if (table_by_name_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  tables_.push_back(std::move(info));
  table_by_name_[name] = raw;
  return raw;
}

Result<IndexInfo*> Catalog::CreateIndex(const std::string& index_name,
                                        const std::string& table,
                                        const std::string& column,
                                        BufferPool* pool) {
  TableInfo* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  int col = t->schema.ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("no column '" + column + "' in '" + table + "'");
  }
  if (t->FindIndex(column) != nullptr) {
    return Status::AlreadyExists("index on " + table + "(" + column +
                                 ") exists");
  }
  TypeId type = t->schema.columns[col].type;
  if (type == TypeId::kXadt) {
    return Status::InvalidArgument("cannot index an XADT column");
  }
  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->table = table;
  info->column = column;
  info->column_index = col;
  info->key_type = type;
  // Root-page allocation happens before the registry lock (see
  // CreateTable); DDL is serialized by the exclusive statement lock, so
  // the FindIndex check above cannot be raced by another CreateIndex.
  XO_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool));
  info->tree = std::make_unique<BPlusTree>(tree);
  IndexInfo* raw = info.get();
  xo::WriterLock lock(&mu_);
  indexes_.push_back(std::move(info));
  t->indexes.push_back(raw);
  return raw;
}

Result<TableInfo*> Catalog::RestoreTable(std::unique_ptr<TableInfo> info) {
  xo::WriterLock lock(&mu_);
  if (table_by_name_.count(info->name)) {
    return Status::AlreadyExists("table '" + info->name + "' exists");
  }
  info->stats.columns.resize(info->schema.size());
  TableInfo* raw = info.get();
  tables_.push_back(std::move(info));
  table_by_name_[raw->name] = raw;
  return raw;
}

Result<IndexInfo*> Catalog::RestoreIndex(std::unique_ptr<IndexInfo> info) {
  xo::WriterLock lock(&mu_);
  TableInfo* t = FindTableLocked(info->table);
  if (t == nullptr) {
    return Status::Corruption("index '" + info->name +
                              "' references missing table '" + info->table +
                              "'");
  }
  IndexInfo* raw = info.get();
  indexes_.push_back(std::move(info));
  t->indexes.push_back(raw);
  return raw;
}

TableInfo* Catalog::FindTableLocked(std::string_view name) const {
  auto it = table_by_name_.find(name);
  return it == table_by_name_.end() ? nullptr : it->second;
}

TableInfo* Catalog::FindTable(std::string_view name) {
  xo::ReaderLock lock(&mu_);
  return FindTableLocked(name);
}

const TableInfo* Catalog::FindTable(std::string_view name) const {
  xo::ReaderLock lock(&mu_);
  return FindTableLocked(name);
}

std::vector<TableInfo*> Catalog::tables() const {
  xo::ReaderLock lock(&mu_);
  std::vector<TableInfo*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

std::vector<IndexInfo*> Catalog::indexes() const {
  xo::ReaderLock lock(&mu_);
  std::vector<IndexInfo*> out;
  out.reserve(indexes_.size());
  for (const auto& i : indexes_) out.push_back(i.get());
  return out;
}

uint64_t Catalog::DataBytes() const {
  uint64_t bytes = 0;
  for (TableInfo* t : tables()) bytes += t->heap->bytes();
  return bytes;
}

uint64_t Catalog::IndexBytes() const {
  uint64_t bytes = 0;
  for (IndexInfo* i : indexes()) bytes += i->tree->bytes();
  return bytes;
}

void Catalog::Clear() {
  xo::WriterLock lock(&mu_);
  table_by_name_.clear();
  indexes_.clear();
  tables_.clear();
}

}  // namespace xorator::ordb
