#ifndef XORATOR_XADT_SCANNER_H_
#define XORATOR_XADT_SCANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/lifetime.h"
#include "common/result.h"
#include "xml/lexer.h"

namespace xorator::xadt {

/// First byte of an encoded XADT value: its representation (xadt.h).
inline constexpr char kRawMarker = 'R';
inline constexpr char kCompressedMarker = 'C';
inline constexpr char kDirectoryMarker = 'D';

/// Token opcodes of the compressed representation.
inline constexpr uint8_t kTokStart = 0x01;
inline constexpr uint8_t kTokEnd = 0x02;
inline constexpr uint8_t kTokText = 0x03;

/// A pull-based event scanner over an encoded XADT value (either
/// representation): the XADT methods evaluate path/keyword/order
/// predicates over its events without materializing a DOM — the streaming
/// equivalent of the paper's C-string implementation — and xadt::Decode
/// builds the DOM from the same events. The raw form is lexed by
/// xml::Lexer under its grammar and depth limit, without size limits.
///
/// Events carry byte offsets into the encoded value so that matched
/// fragments can be emitted by copying the original byte range:
///   * a kStart event's `offset` is the first byte of the element
///     (the '<' in the raw form, the start opcode in the compressed form);
///   * a kEnd event's `end_offset` is one past the last byte of the element.
/// Self-closing raw elements produce a kStart immediately followed by a
/// kEnd. Attributes are skipped unless DecodeAttributes asks for them.
///
/// The scanner is a gsl::Pointer into the encoded bytes (DESIGN.md
/// section 14): it never copies them, so Clang builds reject constructing
/// one over a temporary owner in a single statement.
class XO_GSL_POINTER(char) FragmentScanner {
 public:
  using EventKind = xml::TokenKind;
  /// kStart/kEnd carry the element name, kText the decoded character data.
  using Event = xml::Token;

  /// `bytes` must outlive the scanner (enforced on Clang builds via the
  /// lifetime-bound parameter). Accepts all three representations (raw,
  /// compressed, and the directory-prefixed form, whose directory is
  /// parsed into top_ranges()).
  [[nodiscard]] static Result<FragmentScanner> Create(
      std::string_view bytes XO_LIFETIME_BOUND);

  /// The returned Event's views point into the scanner (and its bytes);
  /// they are valid only until the next call.
  [[nodiscard]] Result<Event> Next() XO_LIFETIME_BOUND;

  /// Passes the attributes of the most recent kStart event to `sink`, one
  /// at a time, so a DOM builder can charge each before storing it.
  [[nodiscard]] Status DecodeAttributes(const xml::AttributeSink& sink);

  bool compressed() const { return compressed_; }

  /// True when the value carries a top-level fragment directory
  /// (the 'D' representation, the paper's Section 5 metadata extension).
  bool has_directory() const { return has_directory_; }

  /// Absolute (start, end) byte ranges of the top-level fragments, from the
  /// directory; empty unless has_directory().
  const std::vector<std::pair<size_t, size_t>>& top_ranges() const {
    return top_ranges_;
  }

  /// Element name of the start event at `offset` (which must be the first
  /// byte of an element in this value), without advancing the scanner. The
  /// view points into the scanner's bytes (raw form) or its dictionary.
  [[nodiscard]] Result<std::string_view> NameAt(size_t offset) const
      XO_LIFETIME_BOUND;

  /// Offset where the token/markup stream begins (after the marker byte
  /// and, for the compressed form, the dictionary).
  size_t content_begin() const { return content_begin_; }

  /// The dictionary prefix of a compressed value ('C' + dictionary), usable
  /// verbatim as the header of a sliced output value.
  std::string_view header() const XO_LIFETIME_BOUND {
    return bytes_.substr(payload_base_, content_begin_ - payload_base_);
  }

 private:
  explicit FragmentScanner(std::string_view bytes)
      : bytes_(bytes), lexer_(bytes, 0, {}) {}

  [[nodiscard]] Result<Event> NextCompressed();
  [[nodiscard]] Status ParseDictionary(size_t dict_begin);

  std::string_view bytes_;
  bool compressed_ = false;
  bool has_directory_ = false;
  /// First byte of the embedded payload ('R'/'C' marker) for the directory
  /// form; 0 otherwise.
  size_t payload_base_ = 0;
  std::vector<std::pair<size_t, size_t>> top_ranges_;
  size_t content_begin_ = 1;
  /// Raw form (and the empty value): the XML lexer over the payload.
  xml::Lexer lexer_;
  // Compressed form: cursor, dictionary, open element names (views into
  // dict_), and where the last start token's attribute list begins.
  size_t pos_ = 0;
  std::vector<std::string> dict_;
  std::vector<std::string_view> open_;
  size_t attrs_pos_ = 0;
};

}  // namespace xorator::xadt

#endif  // XORATOR_XADT_SCANNER_H_
