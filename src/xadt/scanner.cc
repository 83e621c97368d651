#include "xadt/scanner.h"

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
  if (bytes[0] == kRawMarker) {
    scanner.lexer_ = xml::Lexer(bytes, 1, kStoredValueLimits);
    return scanner;
  }
  if (bytes[0] == kCompressedMarker) {
    scanner.compressed_ = true;
    XO_RETURN_NOT_OK(scanner.ParseDictionary(1));
    return scanner;
  }
  return Status::ParseError("unknown XADT representation marker");
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
