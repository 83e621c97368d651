#include "xml/serializer.h"

namespace xorator::xml {

namespace {

void AppendEscaped(std::string_view raw, bool attribute, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '&':
        *out += "&amp;";
        break;
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '"':
        if (attribute) {
          *out += "&quot;";
        } else {
          out->push_back(c);
        }
        break;
      default:
        out->push_back(c);
    }
  }
}

void SerializeNode(const Node& node, int indent, int depth, std::string* out) {
  auto newline_indent = [&](int d) {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent) * d, ' ');
    }
  };
  if (node.is_text()) {
    AppendEscaped(node.text(), /*attribute=*/false, out);
    return;
  }
  if (node.name() == "#fragment") {
    bool first = true;
    for (const auto& c : node.children()) {
      if (!first) newline_indent(depth);
      first = false;
      SerializeNode(*c, indent, depth, out);
    }
    return;
  }
  out->push_back('<');
  *out += node.name();
  for (const Attribute& a : node.attributes()) {
    out->push_back(' ');
    *out += a.name;
    *out += "=\"";
    AppendEscaped(a.value, /*attribute=*/true, out);
    out->push_back('"');
  }
  if (node.children().empty()) {
    *out += "/>";
    return;
  }
  out->push_back('>');
  bool only_text = true;
  for (const auto& c : node.children()) {
    if (!c->is_text()) {
      only_text = false;
      break;
    }
  }
  for (const auto& c : node.children()) {
    if (!only_text) newline_indent(depth + 1);
    SerializeNode(*c, indent, depth + 1, out);
  }
  if (!only_text) newline_indent(depth);
  *out += "</";
  *out += node.name();
  out->push_back('>');
}

}  // namespace

std::string Serialize(const Node& node, const SerializeOptions& options) {
  std::string out;
  SerializeNode(node, options.indent, 0, &out);
  return out;
}

void SerializeTo(const Node& node, std::string* out) {
  SerializeNode(node, /*indent=*/-1, 0, out);
}

}  // namespace xorator::xml
