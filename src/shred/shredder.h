#ifndef XORATOR_SHRED_SHREDDER_H_
#define XORATOR_SHRED_SHREDDER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapping/schema.h"
#include "ordb/tuple.h"
#include "xml/dom.h"

namespace xorator::shred {

/// Rows produced for one or more documents, keyed by table name.
using RowBatch = std::map<std::string, std::vector<ordb::Tuple>>;

/// Converts parsed XML documents into tuples under a mapped schema
/// (either mapping algorithm).
///
/// Surrogate ids are dense per table and persist across documents, so one
/// Shredder instance can load a whole corpus. Semantics:
///   * parentID: id of the enclosing relation tuple;
///   * parentCODE: element name of the enclosing relation's table;
///   * childOrder: 1-based position among same-tag siblings;
///   * XADT columns: all matching child fragments of the tuple's element,
///     encoded raw or compressed per `use_compression`.
class Shredder {
 public:
  Shredder(const mapping::MappedSchema* schema, bool use_compression);

  /// Shreds one document rooted at `root`, appending rows to `*out`.
  /// Fails if the root element is not mapped to a relation.
  [[nodiscard]] Status Shred(const xml::Node& root, RowBatch* out);

  /// Next id that will be assigned for `table` (ids are 1-based).
  int64_t NextId(const std::string& table) const;

 private:
  struct TablePlan {
    const mapping::TableSpec* spec = nullptr;
    int id_col = -1;
    int parent_col = -1;
    int code_col = -1;
    int order_col = -1;
    int value_col = -1;
    // Keys are '/'-joined element paths below the table's element.
    std::map<std::string, int> inlined_value_cols;
    // Keys are "<path>@<attr>"; the empty path addresses the element itself.
    std::map<std::string, int> attr_cols;
    std::map<std::string, int> xadt_cols;
  };

  [[nodiscard]] Status VisitRelation(const xml::Node& elem, const TablePlan* parent_plan,
                       int64_t parent_id, int64_t child_order, RowBatch* out);

  [[nodiscard]] Status WalkInlined(const xml::Node& node, const TablePlan& plan,
                     const std::string& path, ordb::Tuple* tuple,
                     std::map<int, std::vector<const xml::Node*>>* fragments,
                     int64_t tuple_id, RowBatch* out);

  const mapping::MappedSchema* schema_;
  bool use_compression_;
  std::map<std::string, TablePlan> plans_;          // by table name
  std::map<std::string, const TablePlan*> by_element_;
  std::map<std::string, int64_t> next_id_;
};

}  // namespace xorator::shred

#endif  // XORATOR_SHRED_SHREDDER_H_
