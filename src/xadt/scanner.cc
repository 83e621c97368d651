#include "xadt/scanner.h"

#include "common/safe_math.h"

namespace xorator::xadt {

// Stored raw values keep the grammar and the depth bound, not the size
// bounds: escaping and run merging can lengthen a run the loader accepted.
constexpr xml::ParserLimits kStoredValueLimits{.max_token_bytes = 0,
                                               .max_input_bytes = 0};

Result<FragmentScanner> FragmentScanner::Create(std::string_view bytes) {
  FragmentScanner scanner(bytes);
  if (bytes.empty()) {
    scanner.content_begin_ = 0;
    return scanner;
  }
  size_t base = 0;
  if (bytes[0] == kDirectoryMarker) {
    // 'D' + varint count + count * (varint start, varint len), offsets
    // relative to the embedded payload.
    scanner.has_directory_ = true;
    size_t pos = 1;
    XO_ASSIGN_OR_RETURN(uint64_t count, GetVarint(bytes, &pos));
    // Each directory entry needs at least two bytes; reject corrupt counts
    // before reserving memory for them.
    // The directory is stored metadata, not document text, so its failures
    // are kCorruption; its offsets and lengths are attacker bytes and all
    // arithmetic on them is checked (a wrapped start+len used to rely on
    // the range checks below catching the wrapped values).
    if (count > (bytes.size() - pos) / 2) {
      return Status::Corruption("XADT directory count exceeds value size");
    }
    scanner.top_ranges_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      XO_ASSIGN_OR_RETURN(uint64_t start, GetVarint(bytes, &pos));
      XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes, &pos));
      XO_ASSIGN_OR_RETURN(uint64_t end, xo::CheckedAdd(start, len));
      scanner.top_ranges_.emplace_back(start, end);
    }
    base = pos;
    if (base >= bytes.size()) {
      return Status::Corruption("directory XADT value without payload");
    }
    for (auto& [start, end] : scanner.top_ranges_) {
      XO_ASSIGN_OR_RETURN(start, xo::CheckedAdd<uint64_t>(start, base));
      XO_ASSIGN_OR_RETURN(end, xo::CheckedAdd<uint64_t>(end, base));
      if (end > bytes.size() || start >= end) {
        return Status::Corruption("bad XADT directory range");
      }
    }
  }
  scanner.payload_base_ = base;
  if (bytes[base] == kRawMarker) {
    scanner.content_begin_ = base + 1;
    scanner.lexer_ = xml::Lexer(bytes, base + 1, kStoredValueLimits);
    return scanner;
  }
  if (bytes[base] == kCompressedMarker) {
    scanner.compressed_ = true;
    XO_RETURN_NOT_OK(scanner.ParseDictionary(base + 1));
    return scanner;
  }
  return Status::ParseError("unknown XADT representation marker");
}

Result<std::string_view> FragmentScanner::NameAt(size_t offset) const {
  if (offset >= bytes_.size()) {
    return Status::OutOfRange("NameAt offset out of range");
  }
  if (!compressed_) {
    xml::Lexer lexer(bytes_, offset, kStoredValueLimits);
    XO_ASSIGN_OR_RETURN(xml::Token token, lexer.Next());
    if (token.kind != xml::TokenKind::kStart || token.offset != offset) {
      return Status::ParseError("NameAt: not a start tag");
    }
    return token.name;
  }
  size_t pos = offset;
  if (static_cast<uint8_t>(bytes_[pos]) != kTokStart) {
    return Status::ParseError("NameAt: not a start token");
  }
  ++pos;
  XO_ASSIGN_OR_RETURN(uint64_t tag, GetVarint(bytes_, &pos));
  if (tag >= dict_.size()) {
    return Status::ParseError("NameAt: tag id out of range");
  }
  return dict_[tag];
}

Status FragmentScanner::ParseDictionary(size_t dict_begin) {
  size_t pos = dict_begin;
  XO_ASSIGN_OR_RETURN(uint64_t count, GetVarint(bytes_, &pos));
  if (count > bytes_.size() - pos) {
    return Status::ParseError("XADT dictionary count exceeds value size");
  }
  dict_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes_, &pos));
    // Subtraction form: pos <= size() after GetVarint, so this cannot
    // wrap the way `pos + len` could.
    if (len > bytes_.size() - pos) {
      return Status::ParseError("truncated XADT dictionary");
    }
    dict_.push_back(bytes_.substr(pos, len));
    pos += len;
  }
  content_begin_ = pos;
  return Status::OK();
}

size_t FragmentScanner::LongVarint(std::string_view bytes, size_t pos,
                                   uint64_t* value, Status* error) {
  Result<uint64_t> read = GetVarint(bytes, &pos);
  if (!read.ok()) {
    *error = read.status();
    return 0;
  }
  *value = *read;
  return pos;
}

Status FragmentScanner::DecodeAttributes(const xml::AttributeSink& sink) {
  if (!compressed_) return lexer_.DecodeAttributes(sink);
  // Validated when Scan decoded the start token.
  size_t pos = attrs_pos_;
  XO_ASSIGN_OR_RETURN(uint64_t nattrs, GetVarint(bytes_, &pos));
  for (uint64_t i = 0; i < nattrs; ++i) {
    XO_ASSIGN_OR_RETURN(uint64_t name_id, GetVarint(bytes_, &pos));
    XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes_, &pos));
    RETURN_IF_ERROR(sink(dict_[name_id], std::string(bytes_.substr(pos, len))));
    pos += len;
  }
  return Status::OK();
}

}  // namespace xorator::xadt
