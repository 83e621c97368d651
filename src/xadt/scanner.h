#ifndef XORATOR_XADT_SCANNER_H_
#define XORATOR_XADT_SCANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/lifetime.h"
#include "common/result.h"
#include "common/varint.h"
#include "ordb/query_guard.h"
#include "xml/lexer.h"

namespace xorator::xadt {

/// First byte of an encoded XADT value: its representation (xadt.h).
inline constexpr char kRawMarker = 'R';
inline constexpr char kCompressedMarker = 'C';

/// Token opcodes of the compressed representation.
inline constexpr uint8_t kTokStart = 0x01;
inline constexpr uint8_t kTokEnd = 0x02;
inline constexpr uint8_t kTokText = 0x03;

/// One walk over an encoded XADT value (any representation): the XADT
/// methods evaluate path/keyword/order predicates over its events without
/// materializing a DOM — the streaming equivalent of the paper's C-string
/// implementation — and xadt::Decode builds the DOM from the same events.
/// The raw form is lexed by xml::Lexer under its grammar and depth limit,
/// without size limits; the compressed form is decoded by Scan and nowhere
/// else.
///
/// The walk is push-style: Scan(visitor) decodes each token and hands it
/// straight to the visitor's inline callbacks, so a compressed token
/// builds no event object and no status object (DESIGN.md §14).
///
///   bool OnStart(size_t tag, std::string_view name, size_t offset,
///                size_t depth);
///   bool OnText(std::string_view text);
///   bool OnEnd(size_t end_offset, size_t depth);
///
/// `tag` is the start token's dictionary id in a compressed value and
/// kRawTag in a raw one (TagMatcher resolves a name against either);
/// `offset` is the element's first byte (the '<', or the start opcode) and
/// `end_offset` one past its last byte, so a matched fragment is emitted by
/// copying the original byte range; `depth` is the element's number of
/// open ancestors (0 for a fragment root), so a visitor pairs an end with
/// its start without a stack of its own. A self-closing raw element produces
/// OnStart immediately followed by OnEnd. Views are valid only during the
/// callback. A callback returns false to end the walk early, and Scan then
/// returns OK; a visitor that fails keeps its own error. Attributes are
/// skipped unless DecodeAttributes asks for them.
///
/// The scanner is a gsl::Pointer into the encoded bytes (DESIGN.md
/// section 14): it never copies them, so Clang builds reject constructing
/// one over a temporary owner in a single statement.
class XO_GSL_POINTER(char) FragmentScanner {
 public:
  /// The `tag` of every start event of a raw value.
  static constexpr size_t kRawTag = SIZE_MAX;

  /// `bytes` must outlive the scanner (enforced on Clang builds via the
  /// lifetime-bound parameter). Accepts both representations; any other
  /// first byte is kParseError.
  [[nodiscard]] static Result<FragmentScanner> Create(
      std::string_view bytes XO_LIFETIME_BOUND);

  /// Walks the value once, from its first token to its last or until a
  /// callback returns false. Every token polls the statement guard bound
  /// to the thread (DESIGN.md §12). A malformed compressed token is
  /// kParseError (a truncated varint kCorruption); a raw value fails as
  /// xml::Lexer does.
  template <typename V>
  [[nodiscard]] Status Scan(V&& visitor);

  /// Passes the attributes of the most recent start event to `sink`, one
  /// at a time, so a DOM builder can charge each before storing it. Call
  /// it from OnStart.
  [[nodiscard]] Status DecodeAttributes(const xml::AttributeSink& sink);

  [[nodiscard]] bool compressed() const { return compressed_; }

  /// The compressed value's tag dictionary, indexed by tag id; views into
  /// the value. Empty for a raw value.
  [[nodiscard]] const std::vector<std::string_view>& dictionary() const
      XO_LIFETIME_BOUND {
    return dict_;
  }

  /// Offset where the token/markup stream begins (after the marker byte
  /// and, for the compressed form, the dictionary).
  [[nodiscard]] size_t content_begin() const { return content_begin_; }

  /// Everything before the content ("R", or "C" + dictionary; empty for
  /// the empty value), usable verbatim as the header of a sliced output
  /// value.
  [[nodiscard]] std::string_view header() const XO_LIFETIME_BOUND {
    return bytes_.substr(0, content_begin_);
  }

 private:
  explicit FragmentScanner(std::string_view bytes)
      : bytes_(bytes), lexer_(bytes, 0, {}) {}

  template <typename V>
  [[nodiscard]] Status ScanRaw(V& visitor, ordb::QueryGuard* guard);
  [[nodiscard]] Status ParseDictionary(size_t dict_begin);

  /// Decodes the varint at `pos` into `*value` and returns the offset past
  /// it: a one-byte varint here, a longer one through the checked
  /// GetVarint (LongVarint, out of line). A truncated or overlong varint
  /// returns 0, which no varint ends at (byte 0 is the marker), and sets
  /// `*error` (kCorruption). The cursor goes in and out by value, so the
  /// caller's stays in a register.
  static size_t ReadVarint(std::string_view bytes, size_t pos,
                           uint64_t* value, Status* error) {
    if (pos < bytes.size() && static_cast<uint8_t>(bytes[pos]) < 0x80) {
      *value = static_cast<uint8_t>(bytes[pos]);
      return pos + 1;
    }
    return LongVarint(bytes, pos, value, error);
  }
  static size_t LongVarint(std::string_view bytes, size_t pos,
                           uint64_t* value, Status* error);

  std::string_view bytes_;
  bool compressed_ = false;
  size_t content_begin_ = 1;
  /// Raw form (and the empty value): the XML lexer over the payload.
  xml::Lexer lexer_;
  // Compressed form: the dictionary (views into bytes_) and where the last
  // start token's attribute list begins.
  std::vector<std::string_view> dict_;
  size_t attrs_pos_ = 0;
};

/// A Scan visitor made of three callables, typically lambdas:
///   scanner.Scan(Visitor{on_start, on_text, on_end})
template <typename Start, typename Text, typename End>
struct Visitor {
  Start OnStart;
  Text OnText;
  End OnEnd;
};

/// One element name resolved against one value, once: a compressed start
/// event is matched by its tag id (a bit per dictionary id, for the first
/// 64 ids, whose entry spells the name), a raw one or a later id by name.
class TagMatcher {
 public:
  TagMatcher(const FragmentScanner& scanner, std::string_view name)
      : name_(name) {
    const std::vector<std::string_view>& dict = scanner.dictionary();
    for (size_t id = 0; id < dict.size() && id < 64; ++id) {
      if (dict[id] == name) ids_ |= uint64_t{1} << id;
    }
  }

  [[nodiscard]] bool operator()(size_t tag, std::string_view name) const {
    return tag < 64 ? ((ids_ >> tag) & 1) != 0 : name == name_;
  }

 private:
  std::string_view name_;
  uint64_t ids_ = 0;
};

template <typename V>
Status FragmentScanner::Scan(V&& visitor) {
  // Per-token guard poll (DESIGN.md §12): every token decoded while a
  // statement guard is bound thread-locally counts as a cancellation
  // point, so long XADT scans inside ctx-less UDFs stay responsive to
  // deadlines and Cancel().
  ordb::QueryGuard* const guard = ordb::CurrentGuard();
  if (!compressed_) return ScanRaw(visitor, guard);
  const std::string_view bytes = bytes_;
  const size_t size = bytes.size();
  const size_t dict_size = dict_.size();
  size_t pos = content_begin_;
  size_t depth = 0;
  Status error;  // a truncated or overlong varint
  const char* malformed = nullptr;  // why the walk stopped at a bad token
  while (true) {
    if (guard != nullptr) XO_RETURN_NOT_OK(guard->CheckPoint());
    if (pos >= size) {
      if (depth == 0) return Status::OK();
      malformed = "unbalanced XADT fragment";
      break;
    }
    const size_t start = pos;
    const uint8_t op = static_cast<uint8_t>(bytes[pos++]);
    if (op == kTokStart) {
      uint64_t tag = 0;
      pos = ReadVarint(bytes, pos, &tag, &error);
      if (pos == 0) return error;
      if (tag >= dict_size) {
        malformed = "XADT tag id out of range";
        break;
      }
      attrs_pos_ = pos;
      uint64_t nattrs = 0;
      pos = ReadVarint(bytes, pos, &nattrs, &error);
      if (pos == 0) return error;
      bool attrs_ok = true;
      for (uint64_t i = 0; attrs_ok && i < nattrs; ++i) {
        uint64_t name_id = 0;
        uint64_t len = 0;
        pos = ReadVarint(bytes, pos, &name_id, &error);
        if (pos != 0) pos = ReadVarint(bytes, pos, &len, &error);
        if (pos == 0) return error;
        attrs_ok = name_id < dict_size && len <= size - pos;
        if (attrs_ok) pos += len;
      }
      if (!attrs_ok) {
        malformed = "bad XADT attribute token";
        break;
      }
      if (!visitor.OnStart(tag, dict_[tag], start, depth++)) {
        return Status::OK();
      }
    } else if (op == kTokText) {
      uint64_t len = 0;
      pos = ReadVarint(bytes, pos, &len, &error);
      if (pos == 0) return error;
      if (len > size - pos) {
        malformed = "truncated XADT text token";
        break;
      }
      const std::string_view text = bytes.substr(pos, len);
      pos += len;
      if (!visitor.OnText(text)) return Status::OK();
    } else if (op == kTokEnd) {
      if (depth == 0) {
        malformed = "unbalanced XADT end token";
        break;
      }
      if (!visitor.OnEnd(pos, --depth)) return Status::OK();
    } else {
      malformed = "unknown XADT token opcode";
      break;
    }
  }
  return Status::ParseError(malformed);
}

template <typename V>
Status FragmentScanner::ScanRaw(V& visitor, ordb::QueryGuard* guard) {
  size_t depth = 0;  // the lexer checks the nesting itself
  while (true) {
    if (guard != nullptr) XO_RETURN_NOT_OK(guard->CheckPoint());
    XO_ASSIGN_OR_RETURN(const xml::Token token, lexer_.Next());
    bool more = true;
    switch (token.kind) {
      case xml::TokenKind::kEof:
        return Status::OK();
      case xml::TokenKind::kStart:
        more = visitor.OnStart(kRawTag, token.name, token.offset, depth++);
        break;
      case xml::TokenKind::kText:
        more = visitor.OnText(token.text);
        break;
      case xml::TokenKind::kEnd:
        more = visitor.OnEnd(token.end_offset, --depth);
        break;
    }
    if (!more) return Status::OK();
  }
}

}  // namespace xorator::xadt

#endif  // XORATOR_XADT_SCANNER_H_
