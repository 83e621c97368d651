#include "shred/shredder.h"

#include "common/str_util.h"
#include "xadt/xadt.h"

namespace xorator::shred {

namespace {

using mapping::ColumnRole;
using mapping::ColumnSpec;
using mapping::TableSpec;
using ordb::Tuple;
using ordb::Value;

std::string PathKey(const std::vector<std::string>& path) {
  return Join(path, "/");
}

// Concatenation of the direct text children only (excludes text nested in
// sub-elements, which belongs to their own columns/fragments).
std::string DirectText(const xml::Node& elem) {
  std::string out;
  for (const auto& c : elem.children()) {
    if (c->is_text()) out += c->text();
  }
  return out;
}

}  // namespace

Shredder::Shredder(const mapping::MappedSchema* schema, bool use_compression)
    : schema_(schema), use_compression_(use_compression) {
  for (const TableSpec& table : schema_->tables) {
    TablePlan plan;
    plan.spec = &table;
    for (size_t i = 0; i < table.columns.size(); ++i) {
      const ColumnSpec& col = table.columns[i];
      int idx = static_cast<int>(i);
      switch (col.role) {
        case ColumnRole::kId:
          plan.id_col = idx;
          break;
        case ColumnRole::kParentId:
          plan.parent_col = idx;
          break;
        case ColumnRole::kParentCode:
          plan.code_col = idx;
          break;
        case ColumnRole::kChildOrder:
          plan.order_col = idx;
          break;
        case ColumnRole::kValue:
          plan.value_col = idx;
          break;
        case ColumnRole::kInlinedValue:
          plan.inlined_value_cols[PathKey(col.path)] = idx;
          break;
        case ColumnRole::kInlinedAttr:
          plan.attr_cols[PathKey(col.path) + "@" + col.attr] = idx;
          break;
        case ColumnRole::kXadtFragment:
          plan.xadt_cols[PathKey(col.path)] = idx;
          break;
      }
    }
    plans_[table.name] = std::move(plan);
  }
  for (auto& [name, plan] : plans_) {
    by_element_[plan.spec->element] = &plan;
    next_id_[name] = 1;
  }
}

int64_t Shredder::NextId(const std::string& table) const {
  auto it = next_id_.find(table);
  return it == next_id_.end() ? 1 : it->second;
}

Status Shredder::Shred(const xml::Node& root, RowBatch* out) {
  if (!root.is_element()) {
    return Status::InvalidArgument("document root must be an element");
  }
  auto it = by_element_.find(root.name());
  if (it == by_element_.end()) {
    return Status::InvalidArgument("root element '" + root.name() +
                                   "' is not mapped to a relation");
  }
  return VisitRelation(root, nullptr, 0, 1, out);
}

Status Shredder::VisitRelation(const xml::Node& elem,
                               const TablePlan* parent_plan, int64_t parent_id,
                               int64_t child_order, RowBatch* out) {
  auto it = by_element_.find(elem.name());
  if (it == by_element_.end()) {
    return Status::Internal("element '" + elem.name() +
                            "' has no relation plan");
  }
  const TablePlan& plan = *it->second;
  const TableSpec& spec = *plan.spec;

  Tuple tuple(spec.columns.size(), Value::Null());
  int64_t id = next_id_[spec.name]++;
  tuple[plan.id_col] = Value::Int(id);
  if (plan.parent_col >= 0 && parent_plan != nullptr) {
    tuple[plan.parent_col] = Value::Int(parent_id);
  }
  if (plan.code_col >= 0 && parent_plan != nullptr) {
    tuple[plan.code_col] = Value::Varchar(parent_plan->spec->element);
  }
  if (plan.order_col >= 0) {
    tuple[plan.order_col] = Value::Int(child_order);
  }
  if (plan.value_col >= 0) {
    std::string text = DirectText(elem);
    if (!text.empty()) tuple[plan.value_col] = Value::Varchar(std::move(text));
  }
  // Attributes of the relation element itself (empty path).
  for (const xml::Attribute& attr : elem.attributes()) {
    auto col = plan.attr_cols.find("@" + attr.name);
    if (col != plan.attr_cols.end()) {
      tuple[col->second] = Value::Varchar(attr.value);
    }
  }

  std::map<int, std::vector<const xml::Node*>> fragments;
  XO_RETURN_NOT_OK(
      WalkInlined(elem, plan, "", &tuple, &fragments, id, out));

  for (auto& [col, nodes] : fragments) {
    tuple[col] = Value::Xadt(xadt::Encode(nodes, use_compression_));
  }
  (*out)[spec.name].push_back(std::move(tuple));
  return Status::OK();
}

Status Shredder::WalkInlined(
    const xml::Node& node, const TablePlan& plan, const std::string& path,
    Tuple* tuple, std::map<int, std::vector<const xml::Node*>>* fragments,
    int64_t tuple_id, RowBatch* out) {
  std::map<std::string, int64_t> sibling_count;
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    const xml::Node& c = *child;
    int64_t order = ++sibling_count[c.name()];
    if (schema_->IsRelationElement(c.name())) {
      XO_RETURN_NOT_OK(VisitRelation(c, &plan, tuple_id, order, out));
      continue;
    }
    std::string key = path.empty() ? c.name() : path + "/" + c.name();
    auto xadt_col = plan.xadt_cols.find(key);
    if (xadt_col != plan.xadt_cols.end()) {
      (*fragments)[xadt_col->second].push_back(&c);
      continue;
    }
    bool known = false;
    auto value_col = plan.inlined_value_cols.find(key);
    if (value_col != plan.inlined_value_cols.end()) {
      known = true;
      if ((*tuple)[value_col->second].is_null()) {
        (*tuple)[value_col->second] = Value::Varchar(DirectText(c));
      }
    }
    for (const xml::Attribute& attr : c.attributes()) {
      auto attr_col = plan.attr_cols.find(key + "@" + attr.name);
      if (attr_col != plan.attr_cols.end()) {
        known = true;
        if ((*tuple)[attr_col->second].is_null()) {
          (*tuple)[attr_col->second] = Value::Varchar(attr.value);
        }
      }
    }
    // Recurse: deeper inlined descendants (Hybrid's path-prefixed columns)
    // or relation elements further down.
    bool has_element_children = false;
    for (const auto& gc : c.children()) {
      if (gc->is_element()) {
        has_element_children = true;
        break;
      }
    }
    if (has_element_children || !known) {
      XO_RETURN_NOT_OK(WalkInlined(c, plan, key, tuple, fragments, tuple_id,
                                   out));
    }
  }
  return Status::OK();
}

}  // namespace xorator::shred
