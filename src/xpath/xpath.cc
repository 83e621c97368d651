#include "xpath/xpath.h"

#include <cctype>
#include <charconv>

#include "common/str_util.h"

namespace xorator::xpath {

namespace {

using mapping::ColumnRole;
using mapping::ColumnSpec;
using mapping::TableSpec;

std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  return out + "'";
}

int FindColumn(const TableSpec& spec, ColumnRole role,
               const std::vector<std::string>& path) {
  for (size_t i = 0; i < spec.columns.size(); ++i) {
    const ColumnSpec& col = spec.columns[i];
    if (col.role == role && col.path == path) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kContainsSelf:
      return "[contains(., " + Quote(key) + ")]";
    case Kind::kContainsChild:
      return "[contains(" + child + ", " + Quote(key) + ")]";
    case Kind::kPosition:
      return "[position() = " + std::to_string(position) + "]";
  }
  return "[?]";
}

std::string PathExpr::ToString() const {
  std::string out;
  for (const Step& step : steps) {
    out += step.descendant ? "//" : "/";
    out += step.name;
    for (const Predicate& p : step.predicates) out += p.ToString();
  }
  return out;
}

Result<PathExpr> ParsePath(std::string_view input) {
  PathExpr path;
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < input.size() &&
           std::isspace(static_cast<unsigned char>(input[pos]))) {
      ++pos;
    }
  };
  auto parse_name = [&]() -> Result<std::string> {
    skip_space();
    size_t start = pos;
    while (pos < input.size() &&
           (std::isalnum(static_cast<unsigned char>(input[pos])) ||
            input[pos] == '_' || input[pos] == '-')) {
      ++pos;
    }
    if (pos == start) {
      return Status::ParseError("expected name at position " +
                                std::to_string(pos));
    }
    return std::string(input.substr(start, pos - start));
  };
  auto parse_string = [&]() -> Result<std::string> {
    skip_space();
    if (pos >= input.size() || input[pos] != '\'') {
      return Status::ParseError("expected string literal");
    }
    ++pos;
    std::string out;
    while (pos < input.size() && input[pos] != '\'') out.push_back(input[pos++]);
    if (pos >= input.size()) {
      return Status::ParseError("unterminated string literal");
    }
    ++pos;
    return out;
  };
  skip_space();
  while (pos < input.size()) {
    skip_space();
    if (pos >= input.size()) break;
    if (input[pos] != '/') {
      return Status::ParseError("expected '/' at position " +
                                std::to_string(pos));
    }
    Step step;
    ++pos;
    if (pos < input.size() && input[pos] == '/') {
      step.descendant = true;
      ++pos;
    }
    XO_ASSIGN_OR_RETURN(step.name, parse_name());
    skip_space();
    while (pos < input.size() && input[pos] == '[') {
      ++pos;
      skip_space();
      Predicate pred;
      if (input.compare(pos, 8, "position") == 0) {
        pos += 8;
        skip_space();
        if (input.compare(pos, 1, "(") != 0) {
          return Status::ParseError("expected '(' after position");
        }
        ++pos;
        skip_space();
        if (pos >= input.size() || input[pos] != ')') {
          return Status::ParseError("expected ')' after position(");
        }
        ++pos;
        skip_space();
        if (pos >= input.size() || input[pos] != '=') {
          return Status::ParseError("expected '=' in position predicate");
        }
        ++pos;
        skip_space();
        size_t start = pos;
        while (pos < input.size() &&
               std::isdigit(static_cast<unsigned char>(input[pos]))) {
          ++pos;
        }
        if (pos == start) return Status::ParseError("expected number");
        pred.kind = Predicate::Kind::kPosition;
        if (std::from_chars(input.data() + start, input.data() + pos,
                            pred.position)
                .ec != std::errc()) {
          return Status::ParseError("position out of range");
        }
      } else if (input.compare(pos, 8, "contains") == 0) {
        pos += 8;
        skip_space();
        if (pos >= input.size() || input[pos] != '(') {
          return Status::ParseError("expected '(' after contains");
        }
        ++pos;
        skip_space();
        if (pos < input.size() && input[pos] == '.') {
          pred.kind = Predicate::Kind::kContainsSelf;
          ++pos;
        } else {
          pred.kind = Predicate::Kind::kContainsChild;
          XO_ASSIGN_OR_RETURN(pred.child, parse_name());
        }
        skip_space();
        if (pos >= input.size() || input[pos] != ',') {
          return Status::ParseError("expected ',' in contains");
        }
        ++pos;
        XO_ASSIGN_OR_RETURN(pred.key, parse_string());
        skip_space();
        if (pos >= input.size() || input[pos] != ')') {
          return Status::ParseError("expected ')' after contains");
        }
        ++pos;
      } else {
        return Status::ParseError("unknown predicate at position " +
                                  std::to_string(pos));
      }
      skip_space();
      if (pos >= input.size() || input[pos] != ']') {
        return Status::ParseError("expected ']'");
      }
      ++pos;
      step.predicates.push_back(std::move(pred));
      skip_space();
    }
    path.steps.push_back(std::move(step));
  }
  if (path.steps.empty()) {
    return Status::ParseError("empty path expression");
  }
  return path;
}

namespace {

/// Accumulated SQL plus the current binding while walking the path.
struct Ctx {
  std::vector<std::string> from;
  std::vector<std::string> where;
  int alias_count = 0;

  enum class Kind { kRelation, kInlined, kXadt };
  Kind kind = Kind::kRelation;
  std::string element;           // current element name
  const TableSpec* table = nullptr;  // owner table (kRelation/kInlined/kXadt)
  std::string alias;                 // owner table alias
  std::vector<std::string> path;     // kInlined: path below the owner element
  std::string xadt_expr;             // kXadt: expression yielding fragments
  /// kXadt: true when the current elements are the fragment roots of
  /// `xadt_expr` (as opposed to one level below the roots).
  bool xadt_at_roots = true;

  std::string NewAlias(const std::string& base) {
    return base + "_" + std::to_string(++alias_count);
  }
  std::string Qualify(const TableSpec& spec, int col) const {
    return alias + "." + spec.columns[col].name;
  }
};

class TranslateWalk {
 public:
  TranslateWalk(const mapping::MappedSchema* schema,
                const dtdgraph::SimplifiedDtd* dtd)
      : schema_(schema), dtd_(dtd) {}

  Result<std::string> Run(const PathExpr& path, OutputMode mode) {
    Ctx ctx;
    XO_RETURN_NOT_OK(Start(path.steps.front(), &ctx));
    XO_RETURN_NOT_OK(ApplyPredicates(path.steps.front(), &ctx));
    for (size_t i = 1; i < path.steps.size(); ++i) {
      XO_RETURN_NOT_OK(Advance(path.steps[i], &ctx));
      XO_RETURN_NOT_OK(ApplyPredicates(path.steps[i], &ctx));
    }
    return Finish(ctx, mode);
  }

 private:
  Status Start(const Step& step, Ctx* ctx) {
    const TableSpec* table = schema_->TableForElement(step.name);
    if (table == nullptr) {
      return Status::InvalidArgument(
          "path must start at a relation element; '" + step.name +
          "' is not one under the " + schema_->algorithm + " mapping");
    }
    ctx->kind = Ctx::Kind::kRelation;
    ctx->table = table;
    ctx->element = step.name;
    ctx->alias = ctx->NewAlias(table->name);
    ctx->from.push_back(table->name + " " + ctx->alias);
    return Status::OK();
  }

  /// `child`'s entry in the DTD declaration of `parent`, or null.
  const dtdgraph::ChildSpec* DtdChild(const std::string& parent,
                                      const std::string& child) const {
    const dtdgraph::SimplifiedElement* decl = dtd_->Find(parent);
    if (decl == nullptr) return nullptr;
    for (const auto& spec : decl->children) {
      if (spec.name == child) return &spec;
    }
    return nullptr;
  }

  /// True if the DTD requires every step of `path` below `element` to
  /// occur exactly once, so each `element` holds one element at `path`.
  bool RequiredBelow(std::string element,
                     const std::vector<std::string>& path) const {
    for (const std::string& child : path) {
      const dtdgraph::ChildSpec* spec = DtdChild(element, child);
      if (spec == nullptr || spec->occurrence != dtdgraph::Occurrence::kOne) {
        return false;
      }
      element = child;
    }
    return true;
  }

  Status Advance(const Step& step, Ctx* ctx) {
    switch (ctx->kind) {
      case Ctx::Kind::kRelation:
        return AdvanceFromRelation(step, ctx);
      case Ctx::Kind::kInlined:
        return AdvanceFromInlined(step, ctx);
      case Ctx::Kind::kXadt:
        return AdvanceInXadt(step, ctx);
    }
    return Status::Internal("bad binding");
  }

  Status AdvanceFromRelation(const Step& step, Ctx* ctx) {
    const std::string& child = step.name;
    // Relation child: join.
    const TableSpec* child_table = schema_->TableForElement(child);
    if (child_table != nullptr) {
      if (!step.descendant && DtdChild(ctx->element, child) == nullptr) {
        return Status::InvalidArgument("'" + child + "' is not a child of '" +
                                       ctx->element + "'");
      }
      if (step.descendant && DtdChild(ctx->element, child) == nullptr) {
        return Status::NotImplemented(
            "'//' across relation boundaries is only supported one level "
            "deep ('" + child + "' below '" + ctx->element + "')");
      }
      std::string alias = ctx->NewAlias(child_table->name);
      ctx->from.push_back(child_table->name + " " + alias);
      int parent_col = child_table->RoleIndex(ColumnRole::kParentId);
      int id_col = ctx->table->RoleIndex(ColumnRole::kId);
      if (parent_col < 0 || id_col < 0) {
        return Status::Internal("missing parent/id columns");
      }
      ctx->where.push_back(alias + "." +
                           child_table->columns[parent_col].name + " = " +
                           ctx->Qualify(*ctx->table, id_col));
      int code_col = child_table->RoleIndex(ColumnRole::kParentCode);
      if (code_col >= 0) {
        ctx->where.push_back(alias + "." +
                             child_table->columns[code_col].name + " = " +
                             Quote(ctx->element));
      }
      ctx->table = child_table;
      ctx->alias = alias;
      ctx->element = child;
      return Status::OK();
    }
    // XADT column: enter fragment context.
    int xadt_col =
        FindColumn(*ctx->table, ColumnRole::kXadtFragment, {child});
    if (xadt_col >= 0) {
      ctx->kind = Ctx::Kind::kXadt;
      ctx->xadt_expr = ctx->Qualify(*ctx->table, xadt_col);
      ctx->element = child;
      ctx->xadt_at_roots = true;
      return Status::OK();
    }
    // Inlined column(s): switch to the inlined binding.
    if (DtdChild(ctx->element, child) == nullptr && !step.descendant) {
      return Status::InvalidArgument("'" + child + "' is not a child of '" +
                                     ctx->element + "'");
    }
    ctx->kind = Ctx::Kind::kInlined;
    ctx->path = {child};
    ctx->element = child;
    if (!HasInlinedBelow(*ctx->table, ctx->path)) {
      return Status::InvalidArgument("no mapping for '" + child +
                                     "' below '" + ctx->table->element + "'");
    }
    return Status::OK();
  }

  /// True if text at `path` or below it is inlined into `spec`. Only text
  /// is addressable in the path subset, and every mapping stores an XADT
  /// fragment one level below its table's element, where
  /// AdvanceFromRelation finds it first.
  bool HasInlinedBelow(const TableSpec& spec,
                       const std::vector<std::string>& path) const {
    for (const ColumnSpec& col : spec.columns) {
      if (col.role == ColumnRole::kInlinedValue &&
          col.path.size() >= path.size() &&
          std::equal(path.begin(), path.end(), col.path.begin())) {
        return true;
      }
    }
    return false;
  }

  Status AdvanceFromInlined(const Step& step, Ctx* ctx) {
    if (step.descendant) {
      return Status::NotImplemented("'//' inside inlined content");
    }
    ctx->path.push_back(step.name);
    ctx->element = step.name;
    if (!HasInlinedBelow(*ctx->table, ctx->path)) {
      return Status::InvalidArgument("no mapping for inlined path");
    }
    return Status::OK();
  }

  Status AdvanceInXadt(const Step& step, Ctx* ctx) {
    // getElm's descendant-or-self search implements both '/' and '//'
    // (exact for '/' when the DTD places the name at one level, which the
    // translator's supported subset assumes).
    ctx->xadt_expr = "getElm(" + ctx->xadt_expr + ", " + Quote(step.name) +
                     ", '', '')";
    ctx->element = step.name;
    ctx->xadt_at_roots = true;  // getElm output has the matches as roots
    return Status::OK();
  }

  Status ApplyPredicates(const Step& step, Ctx* ctx) {
    for (const Predicate& pred : step.predicates) {
      switch (ctx->kind) {
        case Ctx::Kind::kRelation:
          XO_RETURN_NOT_OK(RelationPredicate(pred, ctx));
          break;
        case Ctx::Kind::kInlined:
          XO_RETURN_NOT_OK(InlinedPredicate(pred, ctx));
          break;
        case Ctx::Kind::kXadt:
          XO_RETURN_NOT_OK(XadtPredicate(pred, ctx));
          break;
      }
    }
    return Status::OK();
  }

  Status RelationPredicate(const Predicate& pred, Ctx* ctx) {
    const TableSpec& spec = *ctx->table;
    switch (pred.kind) {
      case Predicate::Kind::kContainsSelf: {
        int value_col = spec.RoleIndex(ColumnRole::kValue);
        if (value_col < 0) {
          return Status::InvalidArgument("element '" + ctx->element +
                                         "' has no text column");
        }
        ctx->where.push_back(ctx->Qualify(spec, value_col) + " LIKE " +
                             Quote("%" + pred.key + "%"));
        return Status::OK();
      }
      case Predicate::Kind::kContainsChild: {
        // XADT child: findKeyInElm. Inlined child: LIKE. Relation child:
        // join (the paper's own style, see QE1).
        int xadt_col = FindColumn(spec, ColumnRole::kXadtFragment,
                                  {pred.child});
        if (xadt_col >= 0) {
          ctx->where.push_back("findKeyInElm(" + ctx->Qualify(spec, xadt_col) +
                               ", " + Quote(pred.child) + ", " +
                               Quote(pred.key) + ") = 1");
          return Status::OK();
        }
        int inlined_col = FindColumn(spec, ColumnRole::kInlinedValue,
                                     {pred.child});
        if (inlined_col >= 0) {
          ctx->where.push_back(ctx->Qualify(spec, inlined_col) + " LIKE " +
                               Quote("%" + pred.key + "%"));
          return Status::OK();
        }
        const TableSpec* child_table = schema_->TableForElement(pred.child);
        if (child_table != nullptr) {
          int value_col = child_table->RoleIndex(ColumnRole::kValue);
          int parent_col = child_table->RoleIndex(ColumnRole::kParentId);
          int id_col = spec.RoleIndex(ColumnRole::kId);
          if (value_col < 0 || parent_col < 0 || id_col < 0) {
            return Status::InvalidArgument("cannot filter on child '" +
                                           pred.child + "'");
          }
          std::string alias = ctx->NewAlias(child_table->name);
          ctx->from.push_back(child_table->name + " " + alias);
          ctx->where.push_back(alias + "." +
                               child_table->columns[parent_col].name + " = " +
                               ctx->Qualify(spec, id_col));
          int code_col = child_table->RoleIndex(ColumnRole::kParentCode);
          if (code_col >= 0) {
            ctx->where.push_back(alias + "." +
                                 child_table->columns[code_col].name + " = " +
                                 Quote(ctx->element));
          }
          ctx->where.push_back(alias + "." +
                               child_table->columns[value_col].name +
                               " LIKE " + Quote("%" + pred.key + "%"));
          return Status::OK();
        }
        return Status::InvalidArgument("unknown child '" + pred.child +
                                       "' in predicate");
      }
      case Predicate::Kind::kPosition: {
        int order_col = spec.RoleIndex(ColumnRole::kChildOrder);
        if (order_col < 0) {
          return Status::InvalidArgument("element '" + ctx->element +
                                         "' has no childOrder column");
        }
        ctx->where.push_back(ctx->Qualify(spec, order_col) + " = " +
                             std::to_string(pred.position));
        return Status::OK();
      }
    }
    return Status::Internal("bad predicate");
  }

  Status InlinedPredicate(const Predicate& pred, Ctx* ctx) {
    const TableSpec& spec = *ctx->table;
    switch (pred.kind) {
      case Predicate::Kind::kContainsSelf: {
        int col = FindColumn(spec, ColumnRole::kInlinedValue, ctx->path);
        if (col < 0) {
          return Status::InvalidArgument("inlined element has no text column");
        }
        ctx->where.push_back(ctx->Qualify(spec, col) + " LIKE " +
                             Quote("%" + pred.key + "%"));
        return Status::OK();
      }
      case Predicate::Kind::kContainsChild: {
        std::vector<std::string> child_path = ctx->path;
        child_path.push_back(pred.child);
        int col = FindColumn(spec, ColumnRole::kInlinedValue, child_path);
        if (col < 0) {
          return Status::InvalidArgument("no column for child '" +
                                         pred.child + "'");
        }
        ctx->where.push_back(ctx->Qualify(spec, col) + " LIKE " +
                             Quote("%" + pred.key + "%"));
        return Status::OK();
      }
      case Predicate::Kind::kPosition:
        return Status::NotImplemented(
            "position() on inlined (single-occurrence) content");
    }
    return Status::Internal("bad predicate");
  }

  Status XadtPredicate(const Predicate& pred, Ctx* ctx) {
    switch (pred.kind) {
      case Predicate::Kind::kContainsSelf:
        ctx->xadt_expr = "getElm(" + ctx->xadt_expr + ", " +
                         Quote(ctx->element) + ", " + Quote(ctx->element) +
                         ", " + Quote(pred.key) + ")";
        return Status::OK();
      case Predicate::Kind::kContainsChild:
        ctx->xadt_expr = "getElm(" + ctx->xadt_expr + ", " +
                         Quote(ctx->element) + ", " + Quote(pred.child) +
                         ", " + Quote(pred.key) + ")";
        return Status::OK();
      case Predicate::Kind::kPosition: {
        // getElmIndex needs the elements still attached to their parents;
        // that is exactly the pre-step expression when the current elements
        // are the fragment roots.
        std::string parent = ctx->xadt_at_roots ? "" : ctx->element;
        ctx->xadt_expr = "getElmIndex(" + ctx->xadt_expr + ", " +
                         Quote(parent) + ", " + Quote(ctx->element) + ", " +
                         std::to_string(pred.position) + ", " +
                         std::to_string(pred.position) + ")";
        ctx->xadt_at_roots = true;
        return Status::OK();
      }
    }
    return Status::Internal("bad predicate");
  }

  Result<std::string> Finish(Ctx& ctx, OutputMode mode) {
    std::string select;
    switch (ctx.kind) {
      case Ctx::Kind::kRelation: {
        if (mode == OutputMode::kCount) {
          select = "COUNT(*) AS n";
        } else {
          int value_col = ctx.table->RoleIndex(ColumnRole::kValue);
          if (value_col < 0) {
            return Status::InvalidArgument(
                "element '" + ctx.element +
                "' has no text column; use count mode");
          }
          select = ctx.Qualify(*ctx.table, value_col) + " AS text";
        }
        break;
      }
      case Ctx::Kind::kInlined: {
        int col =
            FindColumn(*ctx.table, ColumnRole::kInlinedValue, ctx.path);
        if (col >= 0) {
          // Count elements = rows where the inlined column is populated.
          ctx.where.push_back(ctx.Qualify(*ctx.table, col) + " IS NOT NULL");
          select = mode == OutputMode::kCount
                       ? "COUNT(*) AS n"
                       : ctx.Qualify(*ctx.table, col) + " AS text";
        } else if (mode == OutputMode::kCount &&
                   RequiredBelow(ctx.table->element, ctx.path)) {
          // No text of its own, but every row holds exactly one.
          select = "COUNT(*) AS n";
        } else {
          return Status::InvalidArgument(
              "inlined element '" + ctx.element + "' has no text column" +
              (mode == OutputMode::kCount
                   ? " and is optional, so no table records whether it occurs"
                   : ""));
        }
        break;
      }
      case Ctx::Kind::kXadt: {
        std::string alias = ctx.NewAlias("u");
        ctx.from.push_back("table(unnest(" + ctx.xadt_expr + ", " +
                           Quote(ctx.element) + ")) " + alias);
        select = mode == OutputMode::kCount ? "COUNT(*) AS n"
                                            : alias + ".out AS text";
        break;
      }
    }
    std::string sql = "SELECT " + select + " FROM " + Join(ctx.from, ", ");
    if (!ctx.where.empty()) {
      sql += " WHERE " + Join(ctx.where, " AND ");
    }
    return sql;
  }

  const mapping::MappedSchema* schema_;
  const dtdgraph::SimplifiedDtd* dtd_;
};

}  // namespace

Result<std::string> Translator::ToSql(const PathExpr& path,
                                      OutputMode mode) const {
  TranslateWalk walk(schema_, dtd_);
  return walk.Run(path, mode);
}

}  // namespace xorator::xpath
