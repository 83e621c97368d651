#include "ordb/sql.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/lifetime.h"
#include "common/str_util.h"

namespace xorator::ordb::sql {

std::string AstExpr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return name;
    case Kind::kLiteral: {
      if (literal.type() != TypeId::kVarchar) return literal.ToString();
      std::string out = "'";
      out += literal.ToString();
      out += "'";
      return out;
    }
    case Kind::kStar:
      return "*";
    case Kind::kCompare:
      return children[0]->ToString() + " " + std::string(CompareOpName(op)) +
             " " + children[1]->ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      out += children[0]->ToString();
      out += kind == Kind::kAnd ? " AND " : " OR ";
      out += children[1]->ToString();
      out += ")";
      return out;
    }
    case Kind::kNot: {
      std::string out = "NOT (";
      out += children[0]->ToString();
      out += ")";
      return out;
    }
    case Kind::kLike:
      return children[0]->ToString() + " LIKE '" + pattern + "'";
    case Kind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kFunc: {
      std::string out = name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

enum class TokKind { kIdent, kString, kNumber, kPunct, kEnd };

/// A token is a view into the statement text. A string literal's text is
/// the body between its quotes, with each '' escape still doubled.
struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;
  int64_t number = 0;
};

/// The value of a string literal's body: each '' reads as one quote.
std::string Unquote(std::string_view body) {
  std::string value;
  value.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    value.push_back(body[i]);
    if (body[i] == '\'') ++i;  // the lexer admits quotes only in pairs
  }
  return value;
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  /// The next token; kEnd once the input is used up.
  Result<Token> Next() {
    SkipSpace();
    Token t;
    if (pos_ >= input_.size()) return t;
    const size_t start = pos_;
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = TokKind::kIdent;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && pos_ + 1 < input_.size() &&
                std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])) &&
                NumberMayFollow())) {
      t.kind = TokKind::kNumber;
      ++pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
    } else if (c == '\'') {
      t.kind = TokKind::kString;
      for (++pos_;; ++pos_) {
        if (pos_ >= input_.size()) {
          return Status::ParseError("unterminated string literal");
        }
        if (input_[pos_] != '\'') continue;
        if (pos_ + 1 >= input_.size() || input_[pos_ + 1] != '\'') break;
        ++pos_;  // '' stays in the body
      }
      ++pos_;
    } else {
      t.kind = TokKind::kPunct;
      const std::string_view two = input_.substr(pos_, 2);
      pos_ += two == "<>" || two == "<=" || two == ">=" || two == "!=" ? 2 : 1;
    }
    t.text = input_.substr(start, pos_ - start);
    if (t.kind == TokKind::kString) t.text = t.text.substr(1, t.text.size() - 2);
    if (t.kind == TokKind::kPunct && t.text == "!=") t.text = "<>";
    if (t.kind == TokKind::kNumber &&
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), t.number)
                .ec != std::errc()) {
      return Status::ParseError("integer literal out of range: " +
                                std::string(t.text));
    }
    last_ = t;
    return t;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size()) {
      if (std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      } else if (input_.compare(pos_, 2, "--") == 0) {
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  // '-' starts a negative number only where a value may begin.
  bool NumberMayFollow() const {
    if (last_.kind == TokKind::kEnd) return true;  // no token yet
    const std::string_view t = last_.text;
    return last_.kind == TokKind::kPunct &&
           (t == "(" || t == "," || t == "=" || t == "<" || t == ">" ||
            t == "<=" || t == ">=" || t == "<>");
  }

  std::string_view input_;
  size_t pos_ = 0;
  Token last_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (ConsumeKeyword("EXPLAIN")) {
      stmt.kind = Statement::Kind::kExplain;
      XO_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    } else if (PeekKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      XO_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    } else if (ConsumeKeyword("CREATE")) {
      if (ConsumeKeyword("TABLE")) {
        stmt.kind = Statement::Kind::kCreateTable;
        XO_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
      } else if (ConsumeKeyword("INDEX")) {
        stmt.kind = Statement::Kind::kCreateIndex;
        XO_ASSIGN_OR_RETURN(stmt.create_index, ParseCreateIndex());
      } else {
        return Error("expected TABLE or INDEX after CREATE");
      }
    } else if (ConsumeKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      XO_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
    } else if (ConsumeKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      if (!ConsumeKeyword("FROM")) return Error("expected FROM after DELETE");
      XO_ASSIGN_OR_RETURN(stmt.del.table, ExpectIdent("table name"));
      if (ConsumeKeyword("WHERE")) {
        XO_ASSIGN_OR_RETURN(stmt.del.where, ParseExpr());
      }
    } else if (ConsumeKeyword("PRAGMA")) {
      stmt.kind = Statement::Kind::kPragma;
      XO_ASSIGN_OR_RETURN(stmt.pragma.name, ExpectIdent("pragma name"));
      if (ConsumePunct("(")) {
        if (Peek().kind != TokKind::kNumber) return Error("expected number");
        stmt.pragma.arg = Advance().number;
        stmt.pragma.has_arg = true;
        if (!ConsumePunct(")")) return Error("expected ')'");
      }
    } else {
      return Error("expected SELECT, CREATE, INSERT, DELETE, PRAGMA or EXPLAIN");
    }
    ConsumePunct(";");
    if (Peek().kind != TokKind::kEnd) {
      return Error("trailing tokens after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (t.kind != TokKind::kEnd) ++pos_;
    return t;
  }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokKind::kIdent && EqualsIgnoreCase(Peek().text, kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool PeekPunct(std::string_view p) const {
    return Peek().kind == TokKind::kPunct && Peek().text == p;
  }
  bool ConsumePunct(std::string_view p) {
    if (PeekPunct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(std::string msg) const {
    std::string near(Peek().text);
    if (Peek().kind == TokKind::kEnd) near = "<end>";
    if (Peek().kind == TokKind::kString) near = "'" + near + "'";
    return Status::ParseError(msg + " (near \"" + near + "\")");
  }

  // The view points into the statement text, which outlives the parser.
  Result<std::string_view> ExpectIdent(std::string_view what)
      XO_LIFETIME_BOUND {
    if (Peek().kind != TokKind::kIdent) {
      return Error("expected " + std::string(what));
    }
    return Advance().text;
  }

  static bool IsReserved(std::string_view word) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE", "GROUP",  "ORDER", "BY",    "AND",
        "OR",     "NOT",   "LIKE",  "AS",     "TABLE", "ASC",   "DESC",
        "LIMIT",  "HAVING", "DISTINCT", "INSERT", "INTO", "VALUES",
        "CREATE", "INDEX", "ON", "EXPLAIN", "IS", "NULL", "DELETE"};
    for (const char* k : kReserved) {
      if (EqualsIgnoreCase(word, k)) return true;
    }
    return false;
  }

  // An optional `[AS] alias`; leaves `*alias` as it is when there is none.
  Status ParseAlias(std::string* alias) {
    if (ConsumeKeyword("AS")) {
      XO_ASSIGN_OR_RETURN(*alias, ExpectIdent("alias"));
    } else if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().text)) {
      *alias = Advance().text;
    }
    return Status::OK();
  }

  // A call's arguments after its '(', through the closing ')'.
  Status ParseArgs(std::vector<AstExprPtr>* args) {
    if (!PeekPunct(")")) {
      do {
        XO_ASSIGN_OR_RETURN(auto arg, ParseExpr());
        args->push_back(std::move(arg));
      } while (ConsumePunct(","));
    }
    if (!ConsumePunct(")")) return Error("expected ')' after arguments");
    return Status::OK();
  }

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    if (!ConsumeKeyword("SELECT")) return Error("expected SELECT");
    stmt.distinct = ConsumeKeyword("DISTINCT");
    // Select list.
    while (true) {
      SelectItem item;
      XO_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      XO_RETURN_NOT_OK(ParseAlias(&item.alias));
      stmt.items.push_back(std::move(item));
      if (!ConsumePunct(",")) break;
    }
    if (!ConsumeKeyword("FROM")) return Error("expected FROM");
    while (true) {
      TableRef ref;
      if (ConsumeKeyword("TABLE")) {
        if (!ConsumePunct("(")) return Error("expected '(' after TABLE");
        ref.is_function = true;
        XO_ASSIGN_OR_RETURN(ref.function_name, ExpectIdent("function name"));
        if (!ConsumePunct("(")) return Error("expected '(' in table function");
        XO_RETURN_NOT_OK(ParseArgs(&ref.function_args));
        if (!ConsumePunct(")")) return Error("expected ')' after TABLE(...)");
        XO_RETURN_NOT_OK(ParseAlias(&ref.alias));
        if (ref.alias.empty()) return Error("table function requires an alias");
      } else {
        XO_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
        ref.alias = ref.table;
        XO_RETURN_NOT_OK(ParseAlias(&ref.alias));
      }
      stmt.from.push_back(std::move(ref));
      if (!ConsumePunct(",")) break;
    }
    if (ConsumeKeyword("WHERE")) {
      XO_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      if (!ConsumeKeyword("BY")) return Error("expected BY after GROUP");
      while (true) {
        XO_ASSIGN_OR_RETURN(auto e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!ConsumePunct(",")) break;
      }
    }
    if (ConsumeKeyword("ORDER")) {
      if (!ConsumeKeyword("BY")) return Error("expected BY after ORDER");
      while (true) {
        OrderItem item;
        XO_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!ConsumePunct(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokKind::kNumber) return Error("expected number");
      stmt.limit = Advance().number;
    }
    return stmt;
  }

  // Precedence: OR < AND < NOT < comparison/LIKE < primary.
  Result<AstExprPtr> ParseExpr() { return ParseOr(); }

  Result<AstExprPtr> ParseOr() {
    XO_ASSIGN_OR_RETURN(auto lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      XO_ASSIGN_OR_RETURN(auto rhs, ParseAnd());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kOr;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAnd() {
    XO_ASSIGN_OR_RETURN(auto lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      XO_ASSIGN_OR_RETURN(auto rhs, ParseNot());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kAnd;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<AstExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      XO_ASSIGN_OR_RETURN(auto child, ParseNot());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kNot;
      node->children.push_back(std::move(child));
      return node;
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    XO_ASSIGN_OR_RETURN(auto lhs, ParsePrimary());
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      if (!ConsumeKeyword("NULL")) return Error("expected NULL after IS");
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kIsNull;
      node->negated = negated;
      node->children.push_back(std::move(lhs));
      return node;
    }
    if (ConsumeKeyword("LIKE")) {
      if (Peek().kind != TokKind::kString) {
        return Error("LIKE requires a string literal pattern");
      }
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kLike;
      node->pattern = Unquote(Advance().text);
      node->children.push_back(std::move(lhs));
      return node;
    }
    static const std::pair<const char*, CompareOp> kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<=", CompareOp::kLe},
        {">=", CompareOp::kGe}, {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& [text, op] : kOps) {
      if (ConsumePunct(text)) {
        XO_ASSIGN_OR_RETURN(auto rhs, ParsePrimary());
        auto node = std::make_unique<AstExpr>();
        node->kind = AstExpr::Kind::kCompare;
        node->op = op;
        node->children.push_back(std::move(lhs));
        node->children.push_back(std::move(rhs));
        return node;
      }
    }
    return lhs;
  }

  Result<AstExprPtr> ParsePrimary() {
    auto node = std::make_unique<AstExpr>();
    if (ConsumePunct("(")) {
      XO_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      if (!ConsumePunct(")")) return Error("expected ')'");
      return inner;
    }
    if (Peek().kind == TokKind::kString) {
      node->kind = AstExpr::Kind::kLiteral;
      node->literal = Value::Varchar(Unquote(Advance().text));
      return node;
    }
    if (Peek().kind == TokKind::kNumber) {
      node->kind = AstExpr::Kind::kLiteral;
      node->literal = Value::Int(Advance().number);
      return node;
    }
    if (PeekPunct("*")) {
      Advance();
      node->kind = AstExpr::Kind::kStar;
      return node;
    }
    if (Peek().kind != TokKind::kIdent) return Error("expected expression");
    node->name = Advance().text;
    if (ConsumePunct("(")) {
      node->kind = AstExpr::Kind::kFunc;
      XO_RETURN_NOT_OK(ParseArgs(&node->children));
      return node;
    }
    node->kind = AstExpr::Kind::kColumn;
    if (ConsumePunct(".")) {
      XO_ASSIGN_OR_RETURN(std::string_view col, ExpectIdent("column name"));
      node->name.push_back('.');
      node->name.append(col);
    }
    return node;
  }

  Result<CreateTableStmt> ParseCreateTable() {
    CreateTableStmt stmt;
    XO_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("table name"));
    if (!ConsumePunct("(")) return Error("expected '('");
    while (true) {
      XO_ASSIGN_OR_RETURN(std::string_view col, ExpectIdent("column name"));
      XO_ASSIGN_OR_RETURN(std::string_view type_name, ExpectIdent("type"));
      static const std::pair<const char*, TypeId> kTypes[] = {
          {"INTEGER", TypeId::kInteger}, {"INT", TypeId::kInteger},
          {"BIGINT", TypeId::kInteger},  {"VARCHAR", TypeId::kVarchar},
          {"TEXT", TypeId::kVarchar},    {"STRING", TypeId::kVarchar},
          {"CHAR", TypeId::kVarchar},    {"CLOB", TypeId::kVarchar},
          {"XADT", TypeId::kXadt},       {"XML", TypeId::kXadt},
          {"DOUBLE", TypeId::kDouble},   {"FLOAT", TypeId::kDouble},
          {"REAL", TypeId::kDouble},     {"BOOLEAN", TypeId::kBoolean},
          {"BOOL", TypeId::kBoolean}};
      const auto* type = std::find_if(
          std::begin(kTypes), std::end(kTypes),
          [&](const auto& t) { return EqualsIgnoreCase(type_name, t.first); });
      if (type == std::end(kTypes)) {
        return Error("unknown type '" + std::string(type_name) + "'");
      }
      // Optional length/precision: VARCHAR(80).
      if (ConsumePunct("(")) {
        while (!ConsumePunct(")")) {
          if (Peek().kind == TokKind::kEnd) return Error("unterminated type");
          Advance();
        }
      }
      // Optional PRIMARY KEY / NOT NULL noise words.
      while (ConsumeKeyword("PRIMARY") || ConsumeKeyword("KEY") ||
             ConsumeKeyword("NOT") || ConsumeKeyword("NULL")) {
      }
      stmt.columns.emplace_back(col, type->second);
      if (!ConsumePunct(",")) break;
    }
    if (!ConsumePunct(")")) return Error("expected ')'");
    return stmt;
  }

  Result<CreateIndexStmt> ParseCreateIndex() {
    CreateIndexStmt stmt;
    XO_ASSIGN_OR_RETURN(stmt.index_name, ExpectIdent("index name"));
    if (!ConsumeKeyword("ON")) return Error("expected ON");
    XO_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (!ConsumePunct("(")) return Error("expected '('");
    XO_ASSIGN_OR_RETURN(stmt.column, ExpectIdent("column name"));
    if (!ConsumePunct(")")) return Error("expected ')'");
    return stmt;
  }

  Result<InsertStmt> ParseInsert() {
    InsertStmt stmt;
    if (!ConsumeKeyword("INTO")) return Error("expected INTO");
    XO_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (!ConsumeKeyword("VALUES")) return Error("expected VALUES");
    while (true) {
      if (!ConsumePunct("(")) return Error("expected '('");
      std::vector<Value> row;
      while (true) {
        if (Peek().kind == TokKind::kString) {
          row.push_back(Value::Varchar(Unquote(Advance().text)));
        } else if (Peek().kind == TokKind::kNumber) {
          row.push_back(Value::Int(Advance().number));
        } else if (ConsumeKeyword("NULL")) {
          row.push_back(Value::Null());
        } else {
          return Error("expected literal in VALUES");
        }
        if (!ConsumePunct(",")) break;
      }
      if (!ConsumePunct(")")) return Error("expected ')'");
      stmt.rows.push_back(std::move(row));
      if (!ConsumePunct(",")) break;
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseSql(std::string_view input) {
  Lexer lexer(input);
  std::vector<Token> tokens;
  do {
    XO_ASSIGN_OR_RETURN(Token t, lexer.Next());
    tokens.push_back(t);
  } while (tokens.back().kind != TokKind::kEnd);
  return Parser(std::move(tokens)).ParseStatement();
}

StatementClass ClassifyStatement(std::string_view input) {
  static const std::pair<const char*, StatementClass> kClasses[] = {
      {"SELECT", StatementClass::kRead},     {"EXPLAIN", StatementClass::kRead},
      {"CREATE", StatementClass::kMutation}, {"INSERT", StatementClass::kMutation},
      {"DELETE", StatementClass::kMutation}, {"PRAGMA", StatementClass::kPragma}};
  auto first = Lexer(input).Next();
  if (!first.ok() || first->kind != TokKind::kIdent) {
    return StatementClass::kUnknown;
  }
  for (const auto& [keyword, statement_class] : kClasses) {
    if (EqualsIgnoreCase(first->text, keyword)) return statement_class;
  }
  return StatementClass::kUnknown;
}

}  // namespace xorator::ordb::sql
