#ifndef XORATOR_XML_LEXER_H_
#define XORATOR_XML_LEXER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/lifetime.h"
#include "common/result.h"
#include "xml/parser.h"

namespace xorator::xml {

/// What a Token is: a start tag, an end tag, character data, or the end.
enum class TokenKind { kStart, kEnd, kText, kEof };

/// Receives one decoded attribute of a start tag; a non-OK status stops
/// the decoding and is returned by DecodeAttributes.
using AttributeSink =
    std::function<Status(std::string_view name, std::string value)>;

/// One lexer event. Views point into the input (or the lexer's scratch for
/// entity-decoded text) and are valid until the next call.
struct Token {
  TokenKind kind = TokenKind::kEof;
  /// Element name for kStart/kEnd.
  std::string_view name;
  /// Decoded character data for kText.
  std::string_view text;
  /// Absolute byte offset of the token's first byte (the '<' of a tag).
  size_t offset = 0;
  /// One past the token's last byte (the '>' of a tag).
  size_t end_offset = 0;
  /// kText came from a CDATA section.
  bool cdata = false;
};

/// The one pull lexer for XML text: the DOM parser (parser.cc) and the raw
/// XADT scanner (xadt/scanner.cc) both consume its tokens. Comments and
/// processing instructions are skipped without splitting the character
/// data around them; CDATA sections come back as kText with `cdata` set; a
/// self-closing tag yields kStart followed by kEnd. Start tags are fully
/// validated, but their attributes are only decoded on request
/// (DecodeAttributes), so scans that ignore them allocate nothing for them.
///
/// ParserLimits are enforced here and nowhere else. Open elements live in
/// a vector, so `max_depth` bounds memory, not recursion. Line and column
/// are derived from the byte offset only when an error is reported.
class XO_GSL_POINTER(char) Lexer {
 public:
  /// Lexes `input` from byte `begin` on; offsets stay absolute in `input`.
  /// An input over `limits.max_input_bytes` fails the first Next().
  Lexer(std::string_view input XO_LIFETIME_BOUND, size_t begin,
        const ParserLimits& limits)
      : input_(input),
        limits_(limits),
        pos_(begin),
        too_large_(limits.max_input_bytes != 0 &&
                   input.size() > limits.max_input_bytes) {}

  /// The next token; kEof only at the end of input with no element open.
  [[nodiscard]] Result<Token> Next() XO_LIFETIME_BOUND;

  /// Passes the decoded attributes of the most recent kStart to `sink`,
  /// in document order.
  [[nodiscard]] Status DecodeAttributes(const AttributeSink& sink);

  /// Document prolog/epilogue support: skips whitespace, comments and
  /// processing instructions.
  [[nodiscard]] Status SkipMisc();
  bool AtDoctype() const;
  bool AtCdata() const;
  /// Consumes a DOCTYPE declaration, capturing its name and the verbatim
  /// internal subset (left untouched when the declaration has none).
  [[nodiscard]] Status LexDoctype(std::string* name,
                                  std::string* internal_subset);

  bool AtEnd() const { return pos_ >= input_.size(); }

  /// A kParseError at the current position ("... at line L, column C").
  [[nodiscard]] Status Error(const std::string& msg) const {
    return ErrorAt(pos_, msg);
  }

 private:
  [[nodiscard]] Status ErrorAt(size_t offset, const std::string& msg) const;
  bool TooLong(size_t bytes) const {
    return limits_.max_token_bytes != 0 && bytes > limits_.max_token_bytes;
  }
  [[nodiscard]] Status TokenTooLong(std::string_view what) const;
  bool StartsWith(std::string_view token) const {
    return input_.compare(pos_, token.size(), token) == 0;
  }
  bool AtCommentOrPi() const;
  void SkipWhitespace();
  [[nodiscard]] Status SkipCommentOrPi();
  [[nodiscard]] Result<std::string_view> LexName() XO_LIFETIME_BOUND;
  /// Lexes one `name = "value"` pair; passes it to `sink` when non-null,
  /// otherwise only validates it.
  [[nodiscard]] Status LexAttribute(const AttributeSink* sink);
  [[nodiscard]] Result<Token> LexText();
  [[nodiscard]] Result<Token> LexCdata();
  [[nodiscard]] Result<Token> LexStartTag();
  [[nodiscard]] Result<Token> LexEndTag();

  std::string_view input_;
  ParserLimits limits_;
  size_t pos_;
  std::vector<std::string_view> open_;
  /// Attribute span of the most recent start tag.
  size_t attrs_begin_ = 0;
  size_t attrs_end_ = 0;
  /// The most recent start tag was self-closing: its kEnd comes next.
  bool pending_end_ = false;
  bool too_large_;
  /// Backs kText views that are not slices of the input: entity-decoded
  /// text, or text joined across comments/PIs.
  std::string scratch_;
};

}  // namespace xorator::xml

#endif  // XORATOR_XML_LEXER_H_
