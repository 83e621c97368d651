#ifndef XORATOR_XML_SERIALIZER_H_
#define XORATOR_XML_SERIALIZER_H_

#include <string>

#include "xml/dom.h"

namespace xorator::xml {

/// Options for XML serialization.
struct SerializeOptions {
  /// Pretty-print with this indent per depth level; -1 means compact
  /// single-line output (the default; round-trips exactly when whitespace
  /// text was stripped at parse time).
  int indent = -1;
};

/// Serializes the subtree rooted at `node`. A synthetic `#fragment` root is
/// serialized as its children only.
std::string Serialize(const Node& node, const SerializeOptions& options = {});

/// Appends the serialization of `node` to `*out` (compact form).
void SerializeTo(const Node& node, std::string* out);

}  // namespace xorator::xml

#endif  // XORATOR_XML_SERIALIZER_H_
