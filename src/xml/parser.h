#ifndef XORATOR_XML_PARSER_H_
#define XORATOR_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace xorator::xml {

/// Hard limits protecting the lexer (xml/lexer.h) against hostile ("XML
/// bomb") inputs: XML documents and fragments, and raw XADT values, which
/// are lexed with the default depth limit and no size limits. Exceeding
/// any limit is an ordinary ParseError — never unbounded allocation. A
/// limit of 0 disables that particular check.
struct ParserLimits {
  /// Maximum element nesting depth. Open elements are kept on an explicit
  /// stack (no recursion), so this bounds that stack's memory and the
  /// depth of the DOM built from it; 256 is far beyond data-oriented
  /// documents (Shakespeare nests 5 deep).
  size_t max_depth = 256;
  /// Maximum bytes in one token: an element/attribute name, one attribute
  /// value, or one contiguous text run.
  size_t max_token_bytes = 1u << 20;
  /// Maximum total input size in bytes, checked before scanning starts.
  size_t max_input_bytes = 1u << 30;
};

/// Options controlling document parsing.
struct ParseOptions {
  /// When true, text nodes consisting solely of whitespace between elements
  /// are dropped (the usual choice for data-oriented XML).
  bool strip_whitespace_text = true;
  /// Hostile-input bounds (see ParserLimits). Defaults are generous for
  /// real documents and strict enough to stop bombs.
  ParserLimits limits;
};

/// Parses an XML 1.0 document (the subset used by data-oriented XML):
/// elements, attributes, character data, CDATA sections, comments,
/// processing instructions, the five predefined entities, decimal and hex
/// character references, and a DOCTYPE declaration whose internal subset is
/// captured verbatim into `Document::internal_subset`.
///
/// Well-formedness violations produce a ParseError with a line/column
/// position. Both parsers are iterative DOM builders over xml::Lexer.
[[nodiscard]] Result<Document> ParseDocument(std::string_view input,
                               const ParseOptions& options = {});

/// Parses a *fragment*: a sequence of sibling elements/text with no single
/// root, e.g. "<speaker>s1</speaker><speaker>s2</speaker>". Returned under a
/// synthetic root element named `#fragment`.
[[nodiscard]] Result<std::unique_ptr<Node>> ParseFragment(std::string_view input,
                                            const ParseOptions& options = {});

/// Expands the five predefined entities and character references in
/// attribute values / character data. Exposed for tests.
[[nodiscard]] Result<std::string> DecodeEntities(std::string_view raw);

}  // namespace xorator::xml

#endif  // XORATOR_XML_PARSER_H_
