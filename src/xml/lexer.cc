#include "xml/lexer.h"

#include <cstdint>

namespace xorator::xml {

namespace {

constexpr std::string_view kCdataOpen = "<![CDATA[";

// ASCII classes, matching <cctype> under the "C" locale without its calls.
bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool IsNameStartChar(char c) {
  char lower = static_cast<char>(c | 0x20);
  return (lower >= 'a' && lower <= 'z') || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' ||
         c == '.';
}

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

// Expands the predefined entities and character references of `raw`,
// appending to `out`; a null `out` only validates.
Status AppendDecoded(std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size();) {
    size_t amp = raw.find('&', i);
    if (amp == std::string_view::npos) amp = raw.size();
    if (out != nullptr) out->append(raw.substr(i, amp - i));
    if (amp == raw.size()) break;
    size_t semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view name = raw.substr(amp + 1, semi - amp - 1);
    char simple = name == "amp"    ? '&'
                  : name == "lt"   ? '<'
                  : name == "gt"   ? '>'
                  : name == "quot" ? '"'
                  : name == "apos" ? '\''
                                   : '\0';
    if (simple != '\0') {
      if (out != nullptr) out->push_back(simple);
    } else if (!name.empty() && name[0] == '#') {
      bool hex = name.size() > 2 && (name[1] == 'x' || name[1] == 'X');
      std::string_view digits = name.substr(hex ? 2 : 1);
      uint32_t base = hex ? 16 : 10;
      uint32_t code = 0;
      bool ok = !digits.empty();
      for (char c : digits) {
        int value = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                    : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                           : 16;
        auto digit = static_cast<uint32_t>(value);
        code = code * base + digit;
        // Past U+10FFFF is no character (and would overflow the code).
        if (digit >= base || code > 0x10FFFF) {
          ok = false;
          break;
        }
      }
      if (!ok) return Status::ParseError("bad character reference");
      if (out != nullptr) AppendUtf8(code, out);
    } else {
      return Status::ParseError("unknown entity '&" + std::string(name) +
                                ";'");
    }
    i = semi + 1;
  }
  return Status::OK();
}

}  // namespace

Result<std::string> DecodeEntities(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  XO_RETURN_NOT_OK(AppendDecoded(raw, &out));
  return out;
}

Status Lexer::ErrorAt(size_t offset, const std::string& msg) const {
  std::string_view before = input_.substr(0, offset);
  size_t line = 1;
  for (char c : before) line += c == '\n' ? 1 : 0;
  size_t last_newline = before.rfind('\n');
  size_t column = last_newline == std::string_view::npos
                      ? offset + 1
                      : offset - last_newline;
  return Status::ParseError(msg + " at line " + std::to_string(line) +
                            ", column " + std::to_string(column));
}

Status Lexer::TokenTooLong(std::string_view what) const {
  return Error(std::string(what) + " longer than the parser limit of " +
               std::to_string(limits_.max_token_bytes) + " bytes");
}

bool Lexer::AtCommentOrPi() const {
  return pos_ + 1 < input_.size() && input_[pos_] == '<' &&
         (input_[pos_ + 1] == '?' || StartsWith("<!--"));
}

void Lexer::SkipWhitespace() {
  while (!AtEnd() && IsSpace(input_[pos_])) ++pos_;
}

Status Lexer::SkipCommentOrPi() {
  std::string_view close = StartsWith("<?") ? "?>" : "-->";
  size_t found = input_.find(close, pos_);
  if (found == std::string_view::npos) {
    return Error("unterminated construct, expected '" + std::string(close) +
                 "'");
  }
  pos_ = found + close.size();
  return Status::OK();
}

Status Lexer::SkipMisc() {
  while (true) {
    SkipWhitespace();
    if (!AtCommentOrPi()) return Status::OK();
    XO_RETURN_NOT_OK(SkipCommentOrPi());
  }
}

bool Lexer::AtDoctype() const { return StartsWith("<!DOCTYPE"); }

bool Lexer::AtCdata() const { return StartsWith(kCdataOpen); }

Status Lexer::LexDoctype(std::string* name, std::string* internal_subset) {
  pos_ += std::string_view("<!DOCTYPE").size();
  SkipWhitespace();
  XO_ASSIGN_OR_RETURN(std::string_view doctype_name, LexName());
  *name = std::string(doctype_name);
  SkipWhitespace();
  // Optional external id (SYSTEM "..."/PUBLIC "..." "..."): skipped.
  while (!AtEnd() && input_[pos_] != '[' && input_[pos_] != '>') ++pos_;
  if (!AtEnd() && input_[pos_] == '[') {
    size_t start = ++pos_;
    int depth = 1;  // '[' nests only via conditional sections; rare.
    for (; !AtEnd(); ++pos_) {
      if (input_[pos_] == '[') ++depth;
      if (input_[pos_] == ']' && --depth == 0) break;
    }
    if (AtEnd()) return Error("unterminated DOCTYPE internal subset");
    *internal_subset = std::string(input_.substr(start, pos_ - start));
    ++pos_;  // ']'
    SkipWhitespace();
  }
  if (AtEnd() || input_[pos_] != '>') return Error("expected '>' after DOCTYPE");
  ++pos_;
  return Status::OK();
}

Result<std::string_view> Lexer::LexName() {
  if (AtEnd() || !IsNameStartChar(input_[pos_])) return Error("expected name");
  size_t start = pos_;
  while (!AtEnd() && IsNameChar(input_[pos_])) ++pos_;
  if (TooLong(pos_ - start)) return TokenTooLong("name");
  return input_.substr(start, pos_ - start);
}

Status Lexer::LexAttribute(const AttributeSink* sink) {
  XO_ASSIGN_OR_RETURN(std::string_view name, LexName());
  SkipWhitespace();
  if (AtEnd() || input_[pos_] != '=') return Error("expected '=' in attribute");
  ++pos_;
  SkipWhitespace();
  if (AtEnd() || (input_[pos_] != '"' && input_[pos_] != '\'')) {
    return Error("expected quoted value");
  }
  size_t start = pos_ + 1;
  size_t close = input_.find(input_[pos_], start);
  if (close == std::string_view::npos) {
    pos_ = input_.size();
    return Error("unterminated quoted value");
  }
  pos_ = close;
  if (TooLong(close - start)) return TokenTooLong("attribute value");
  std::string_view raw = input_.substr(start, close - start);
  ++pos_;
  std::string value;
  if (raw.find('&') != std::string_view::npos) {
    Status decoded = AppendDecoded(raw, sink != nullptr ? &value : nullptr);
    if (!decoded.ok()) return ErrorAt(start, decoded.message());
  } else if (sink != nullptr) {
    value = std::string(raw);
  }
  return sink != nullptr ? (*sink)(name, std::move(value)) : Status::OK();
}

Status Lexer::DecodeAttributes(const AttributeSink& sink) {
  size_t resume = pos_;
  pos_ = attrs_begin_;
  SkipWhitespace();
  Status status;
  while (status.ok() && pos_ < attrs_end_) {
    status = LexAttribute(&sink);
    SkipWhitespace();
  }
  pos_ = resume;
  return status;
}

Result<Token> Lexer::Next() {
  if (too_large_) {
    return Status::ParseError(
        "input of " + std::to_string(input_.size()) +
        " bytes exceeds the parser limit of " +
        std::to_string(limits_.max_input_bytes) + " bytes");
  }
  if (pending_end_) {
    pending_end_ = false;
    Token token;
    token.kind = TokenKind::kEnd;
    token.name = open_.back();
    token.offset = pos_ - 2;  // the "/>"
    token.end_offset = pos_;
    open_.pop_back();
    return token;
  }
  while (true) {
    if (AtEnd()) {
      if (!open_.empty()) {
        return Error("unexpected end of input inside <" +
                     std::string(open_.back()) + ">");
      }
      return Token{};
    }
    if (input_[pos_] != '<') return LexText();
    char second = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (second == '/') return LexEndTag();
    if (second != '!' && second != '?') return LexStartTag();
    if (AtCommentOrPi()) {
      XO_RETURN_NOT_OK(SkipCommentOrPi());
      continue;
    }
    if (!StartsWith(kCdataOpen)) return LexStartTag();  // fails on the '!'
    XO_ASSIGN_OR_RETURN(Token cdata, LexCdata());
    // An empty section carries no character data.
    if (!cdata.text.empty()) return cdata;
  }
}

Result<Token> Lexer::LexText() {
  Token token;
  token.kind = TokenKind::kText;
  token.offset = pos_;
  size_t lt = input_.find('<', pos_);
  if (lt == std::string_view::npos) lt = input_.size();
  std::string_view raw = input_.substr(pos_, lt - pos_);
  pos_ = lt;
  // Comments and PIs do not end character data: join the pieces around
  // them (rare, so the common run stays a view into the input).
  std::string joined;
  if (AtCommentOrPi()) {
    joined.assign(raw);
    while (!AtEnd() && (input_[pos_] != '<' || AtCommentOrPi())) {
      if (input_[pos_] == '<') {
        XO_RETURN_NOT_OK(SkipCommentOrPi());
        continue;
      }
      lt = input_.find('<', pos_);
      if (lt == std::string_view::npos) lt = input_.size();
      joined.append(input_.substr(pos_, lt - pos_));
      pos_ = lt;
    }
    raw = joined;
  }
  token.end_offset = pos_;
  if (TooLong(raw.size())) return TokenTooLong("text run");
  if (raw.find('&') == std::string_view::npos) {
    if (joined.empty()) {
      token.text = raw;
    } else {
      scratch_ = std::move(joined);
      token.text = scratch_;
    }
    return token;
  }
  scratch_.clear();
  Status status = AppendDecoded(raw, &scratch_);
  if (!status.ok()) return ErrorAt(token.offset, status.message());
  token.text = scratch_;
  return token;
}

Result<Token> Lexer::LexCdata() {
  size_t start = pos_ + kCdataOpen.size();
  size_t end = input_.find("]]>", start);
  if (end == std::string_view::npos) {
    return Error("unterminated CDATA section");
  }
  if (TooLong(end - start)) return TokenTooLong("CDATA section");
  Token token;
  token.kind = TokenKind::kText;
  token.cdata = true;
  token.text = input_.substr(start, end - start);
  token.offset = pos_;
  pos_ = end + 3;
  token.end_offset = pos_;
  return token;
}

Result<Token> Lexer::LexStartTag() {
  if (limits_.max_depth != 0 && open_.size() >= limits_.max_depth) {
    return Error("element nesting deeper than the parser limit of " +
                 std::to_string(limits_.max_depth));
  }
  Token token;
  token.kind = TokenKind::kStart;
  token.offset = pos_++;
  XO_ASSIGN_OR_RETURN(token.name, LexName());
  attrs_begin_ = pos_;
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated start tag");
    if (input_[pos_] == '>' || input_[pos_] == '/') break;
    XO_RETURN_NOT_OK(LexAttribute(nullptr));
  }
  attrs_end_ = pos_;
  if (input_[pos_] == '/') {
    if (!StartsWith("/>")) return Error("expected '>'");
    pending_end_ = true;
    ++pos_;
  }
  ++pos_;
  open_.push_back(token.name);
  token.end_offset = pos_;
  return token;
}

Result<Token> Lexer::LexEndTag() {
  if (open_.empty()) return Error("unexpected '</' outside any element");
  Token token;
  token.kind = TokenKind::kEnd;
  token.offset = pos_;
  pos_ += 2;
  XO_ASSIGN_OR_RETURN(token.name, LexName());
  SkipWhitespace();
  if (AtEnd() || input_[pos_] != '>') return Error("expected '>' in end tag");
  ++pos_;
  if (token.name != open_.back()) {
    return Error("mismatched end tag </" + std::string(token.name) +
                 ">, expected </" + std::string(open_.back()) + ">");
  }
  open_.pop_back();
  token.end_offset = pos_;
  return token;
}

}  // namespace xorator::xml
