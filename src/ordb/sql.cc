#include "ordb/sql.h"

#include <cctype>

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

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // ident (original case) / punct
  std::string upper;  // ident upper-cased, for keyword matching
  int64_t number = 0;
  std::string str;  // string literal value
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Lex() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '_')) {
          ++pos_;
        }
        Token t;
        t.kind = TokKind::kIdent;
        t.text = std::string(input_.substr(start, pos_ - start));
        t.upper = ToUpper(t.text);
        out.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])) &&
                  NumberMayFollow(out))) {
        size_t start = pos_;
        if (c == '-') ++pos_;
        while (pos_ < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
          ++pos_;
        }
        Token t;
        t.kind = TokKind::kNumber;
        t.number = std::stoll(std::string(input_.substr(start, pos_ - start)));
        out.push_back(std::move(t));
      } else if (c == '\'') {
        ++pos_;
        std::string value;
        while (true) {
          if (pos_ >= input_.size()) {
            return Status::ParseError("unterminated string literal");
          }
          if (input_[pos_] == '\'') {
            if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
              value.push_back('\'');
              pos_ += 2;
              continue;
            }
            ++pos_;
            break;
          }
          value.push_back(input_[pos_++]);
        }
        Token t;
        t.kind = TokKind::kString;
        t.str = std::move(value);
        out.push_back(std::move(t));
      } else {
        Token t;
        t.kind = TokKind::kPunct;
        // Two-char operators.
        if (pos_ + 1 < input_.size()) {
          std::string two(input_.substr(pos_, 2));
          if (two == "<>" || two == "<=" || two == ">=" || two == "!=") {
            t.text = two == "!=" ? "<>" : two;
            pos_ += 2;
            out.push_back(std::move(t));
            continue;
          }
        }
        t.text = std::string(1, c);
        ++pos_;
        out.push_back(std::move(t));
      }
    }
    out.push_back(Token{});
    return out;
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
  static bool NumberMayFollow(const std::vector<Token>& out) {
    if (out.empty()) return true;
    const Token& last = out.back();
    if (last.kind == TokKind::kPunct &&
        (last.text == "(" || last.text == "," || last.text == "=" ||
         last.text == "<" || last.text == ">" || last.text == "<=" ||
         last.text == ">=" || last.text == "<>")) {
      return true;
    }
    return false;
  }

  std::string_view input_;
  size_t pos_ = 0;
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
  const Token& Peek(size_t off = 0) const {
    size_t i = pos_ + off;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokKind::kIdent && Peek().upper == kw;
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
    std::string near = Peek().kind == TokKind::kEnd ? "<end>" : Peek().text;
    if (Peek().kind == TokKind::kString) near = "'" + Peek().str + "'";
    if (Peek().kind == TokKind::kNumber) near = std::to_string(Peek().number);
    return Status::ParseError(msg + " (near \"" + near + "\")");
  }

  Result<std::string> ExpectIdent(std::string_view what) {
    if (Peek().kind != TokKind::kIdent) {
      return Error("expected " + std::string(what));
    }
    return Advance().text;
  }

  static bool IsReserved(const std::string& upper) {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE", "GROUP",  "ORDER", "BY",    "AND",
        "OR",     "NOT",   "LIKE",  "AS",     "TABLE", "ASC",   "DESC",
        "LIMIT",  "HAVING", "DISTINCT", "INSERT", "INTO", "VALUES",
        "CREATE", "INDEX", "ON", "EXPLAIN", "IS", "NULL", "DELETE",
        "FROM"};
    for (const char* k : kReserved) {
      if (upper == k) return true;
    }
    return false;
  }

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    if (!ConsumeKeyword("SELECT")) return Error("expected SELECT");
    stmt.distinct = ConsumeKeyword("DISTINCT");
    // Select list.
    while (true) {
      SelectItem item;
      XO_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ConsumeKeyword("AS")) {
        XO_ASSIGN_OR_RETURN(item.alias, ExpectIdent("alias"));
      } else if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().upper)) {
        item.alias = Advance().text;
      }
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
        if (!PeekPunct(")")) {
          while (true) {
            XO_ASSIGN_OR_RETURN(auto arg, ParseExpr());
            ref.function_args.push_back(std::move(arg));
            if (!ConsumePunct(",")) break;
          }
        }
        if (!ConsumePunct(")")) return Error("expected ')' after arguments");
        if (!ConsumePunct(")")) return Error("expected ')' after TABLE(...)");
        if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().upper)) {
          ref.alias = Advance().text;
        } else {
          return Error("table function requires an alias");
        }
      } else {
        XO_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
        ref.alias = ref.table;
        if (ConsumeKeyword("AS")) {
          XO_ASSIGN_OR_RETURN(ref.alias, ExpectIdent("alias"));
        } else if (Peek().kind == TokKind::kIdent &&
                   !IsReserved(Peek().upper)) {
          ref.alias = Advance().text;
        }
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
      node->pattern = Advance().str;
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
      node->literal = Value::Varchar(Advance().str);
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
    std::string first = Advance().text;
    if (PeekPunct("(")) {
      // Function call.
      Advance();
      node->kind = AstExpr::Kind::kFunc;
      node->name = first;
      if (!PeekPunct(")")) {
        while (true) {
          XO_ASSIGN_OR_RETURN(auto arg, ParseExpr());
          node->children.push_back(std::move(arg));
          if (!ConsumePunct(",")) break;
        }
      }
      if (!ConsumePunct(")")) return Error("expected ')' after arguments");
      return node;
    }
    node->kind = AstExpr::Kind::kColumn;
    node->name = first;
    if (ConsumePunct(".")) {
      XO_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
      node->name = first + "." + col;
    }
    return node;
  }

  Result<CreateTableStmt> ParseCreateTable() {
    CreateTableStmt stmt;
    XO_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("table name"));
    if (!ConsumePunct("(")) return Error("expected '('");
    while (true) {
      std::string col;
      XO_ASSIGN_OR_RETURN(col, ExpectIdent("column name"));
      XO_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent("type"));
      std::string upper = ToUpper(type_name);
      TypeId type;
      if (upper == "INTEGER" || upper == "INT" || upper == "BIGINT") {
        type = TypeId::kInteger;
      } else if (upper == "VARCHAR" || upper == "TEXT" || upper == "STRING" ||
                 upper == "CHAR" || upper == "CLOB") {
        type = TypeId::kVarchar;
      } else if (upper == "XADT" || upper == "XML") {
        type = TypeId::kXadt;
      } else if (upper == "DOUBLE" || upper == "FLOAT" || upper == "REAL") {
        type = TypeId::kDouble;
      } else if (upper == "BOOLEAN" || upper == "BOOL") {
        type = TypeId::kBoolean;
      } else {
        return Error("unknown type '" + type_name + "'");
      }
      // Optional length/precision: VARCHAR(80).
      if (ConsumePunct("(")) {
        while (!ConsumePunct(")")) {
          if (Peek().kind == TokKind::kEnd) return Error("unterminated type");
          Advance();
        }
      }
      // Optional PRIMARY KEY / NOT NULL noise words.
      while (Peek().kind == TokKind::kIdent &&
             (Peek().upper == "PRIMARY" || Peek().upper == "KEY" ||
              Peek().upper == "NOT" || Peek().upper == "NULL")) {
        Advance();
      }
      stmt.columns.emplace_back(col, type);
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
          row.push_back(Value::Varchar(Advance().str));
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
  XO_ASSIGN_OR_RETURN(auto tokens, lexer.Lex());
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

StatementClass ClassifyStatement(std::string_view input) {
  size_t i = 0;
  while (i < input.size() &&
         std::isspace(static_cast<unsigned char>(input[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < input.size() &&
         std::isalpha(static_cast<unsigned char>(input[j]))) {
    ++j;
  }
  const std::string_view keyword = input.substr(i, j - i);
  if (EqualsIgnoreCase(keyword, "SELECT") ||
      EqualsIgnoreCase(keyword, "EXPLAIN")) {
    return StatementClass::kRead;
  }
  if (EqualsIgnoreCase(keyword, "CREATE") ||
      EqualsIgnoreCase(keyword, "INSERT") ||
      EqualsIgnoreCase(keyword, "DELETE")) {
    return StatementClass::kMutation;
  }
  if (EqualsIgnoreCase(keyword, "PRAGMA")) {
    return StatementClass::kPragma;
  }
  return StatementClass::kUnknown;
}

}  // namespace xorator::ordb::sql
