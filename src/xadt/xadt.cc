#include "xadt/xadt.h"

#include "xadt/scanner.h"

#include <map>

#include "common/str_util.h"
#include "common/varint.h"
#include "ordb/exec_context.h"
#include "xml/serializer.h"

namespace xorator::xadt {

namespace {

// Charges one XADT method call's result expansion against the guard of the
// statement bound to the thread (none in direct library use). The charge is
// released when the call returns — the caller accounts the value it
// receives — so this caps *peak* decoded-fragment expansion during
// evaluation (DESIGN.md §12).
class ExpansionBudget {
 public:
  ExpansionBudget() : arena_(ordb::ExecContext::CurrentQueryGuard()) {}
  [[nodiscard]] Status Charge(size_t bytes) { return arena_.Charge(bytes); }

 private:
  ordb::TrackedArena arena_;
};

void CollectNames(const xml::Node& node,
                  std::map<std::string, uint64_t>* dict,
                  std::vector<std::string>* names) {
  auto intern = [&](const std::string& name) {
    if (dict->emplace(name, names->size()).second) names->push_back(name);
  };
  if (node.is_element()) {
    intern(node.name());
    for (const xml::Attribute& a : node.attributes()) intern(a.name);
    for (const auto& c : node.children()) CollectNames(*c, dict, names);
  }
}

void EncodeNode(const xml::Node& node,
                const std::map<std::string, uint64_t>& dict,
                std::string* out) {
  if (node.is_text()) {
    out->push_back(static_cast<char>(kTokText));
    PutVarint(out, node.text().size());
    out->append(node.text());
    return;
  }
  out->push_back(static_cast<char>(kTokStart));
  PutVarint(out, dict.at(node.name()));
  PutVarint(out, node.attributes().size());
  for (const xml::Attribute& a : node.attributes()) {
    PutVarint(out, dict.at(a.name));
    PutVarint(out, a.value.size());
    out->append(a.value);
  }
  for (const auto& c : node.children()) EncodeNode(*c, dict, out);
  out->push_back(static_cast<char>(kTokEnd));
}

// True when `s` is OK; otherwise keeps it in `*error`, for a visitor
// callback to end the walk with (FragmentScanner::Scan).
bool Keep(Status s, Status* error) {
  if (s.ok()) return true;
  *error = std::move(s);
  return false;
}

// Walks `scanner` with `visitor`: the walk's own error first, then the one
// a callback kept in `*error` when it ended the walk.
template <typename V>
Status Walk(FragmentScanner& scanner, V&& visitor, Status* error) {
  RETURN_IF_ERROR(scanner.Scan(visitor));
  return std::move(*error);
}

// The trailing key.size()-1 bytes of the character data fed since the last
// Clear(): enough to catch a key that straddles text events, so a search
// never copies a subtree's text (DESIGN.md section 14).
class KeyWindow {
 public:
  explicit KeyWindow(std::string_view key) : key_(key) {}

  // True if the text fed since the last Clear(), `text` included, contains
  // the key.
  bool Feed(std::string_view text) {
    if (key_.empty()) return true;
    const size_t keep = key_.size() - 1;
    // A match that begins in the tail ends within text's first `keep`
    // bytes; any other lies inside `text`.
    if (!tail_.empty()) {
      tail_.append(text.substr(0, keep));
      if (Contains(tail_, key_)) return true;
    }
    if (Contains(text, key_)) return true;
    if (text.size() >= keep) {
      tail_.assign(text.substr(text.size() - keep));
    } else {
      if (tail_.empty()) tail_.assign(text);
      if (tail_.size() > keep) tail_.erase(0, tail_.size() - keep);
    }
    return false;
  }

  void Clear() { tail_.clear(); }

 private:
  std::string_view key_;
  std::string tail_;
};

}  // namespace

bool IsCompressed(std::string_view bytes) {
  auto scanner = FragmentScanner::Create(bytes);
  return scanner.ok() && scanner->compressed();
}

std::string EncodeRaw(const std::vector<const xml::Node*>& fragments) {
  std::string out(1, kRawMarker);
  for (const xml::Node* f : fragments) xml::SerializeTo(*f, &out);
  return out;
}

std::string EncodeCompressed(const std::vector<const xml::Node*>& fragments) {
  std::map<std::string, uint64_t> dict;
  std::vector<std::string> names;
  for (const xml::Node* f : fragments) CollectNames(*f, &dict, &names);
  std::string out(1, kCompressedMarker);
  PutVarint(&out, names.size());
  for (const std::string& n : names) {
    PutVarint(&out, n.size());
    out.append(n);
  }
  for (const xml::Node* f : fragments) EncodeNode(*f, dict, &out);
  return out;
}

std::string Encode(const std::vector<const xml::Node*>& fragments,
                   bool compressed) {
  return compressed ? EncodeCompressed(fragments) : EncodeRaw(fragments);
}

Result<std::unique_ptr<xml::Node>> Decode(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(bytes));
  // A small value can decode to a much larger tree: every node is charged
  // against the statement's budget, and the scanner polls its guard.
  ExpansionBudget budget;
  auto root = xml::Node::Element("#fragment");
  std::vector<xml::Node*> stack = {root.get()};
  Status error;
  RETURN_IF_ERROR(Walk(
      scanner,
      Visitor{
          [&](size_t, std::string_view name, size_t, size_t) {
            if (!Keep(budget.Charge(sizeof(xml::Node) + name.size()),
                      &error)) {
              return false;
            }
            xml::Node* elem =
                stack.back()->AddChild(xml::Node::Element(std::string(name)));
            stack.push_back(elem);
            // Charged before it is stored: a compressed start token can
            // name one long dictionary entry for thousands of attributes.
            return Keep(scanner.DecodeAttributes(
                            [&](std::string_view attr, std::string value) {
                              RETURN_IF_ERROR(
                                  budget.Charge(attr.size() + value.size()));
                              elem->AddAttribute(std::string(attr),
                                                 std::move(value));
                              return Status::OK();
                            }),
                        &error);
          },
          [&](std::string_view text) {
            if (!Keep(budget.Charge(sizeof(xml::Node) + text.size()),
                      &error)) {
              return false;
            }
            stack.back()->AddChild(xml::Node::Text(std::string(text)));
            return true;
          },
          [&](size_t, size_t) {
            stack.pop_back();
            return true;
          }},
      &error));
  return root;
}

Result<std::string> ToXmlString(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(bytes));
  if (!scanner.compressed()) {
    return std::string(bytes.substr(scanner.content_begin()));
  }
  XO_ASSIGN_OR_RETURN(auto root, Decode(bytes));
  std::string out;
  xml::SerializeTo(*root, &out);
  return out;
}

Result<std::string> TextContent(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(bytes));
  ExpansionBudget budget;
  std::string out;
  Status error;
  RETURN_IF_ERROR(Walk(
      scanner,
      Visitor{[](size_t, std::string_view, size_t, size_t) { return true; },
              [&](std::string_view text) {
                if (!Keep(budget.Charge(text.size()), &error)) return false;
                out.append(text);
                return true;
              },
              [](size_t, size_t) { return true; }},
      &error));
  return out;
}

bool ChooseCompression(uint64_t raw_bytes, uint64_t compressed_bytes) {
  return raw_bytes > 0 &&
         static_cast<double>(compressed_bytes) <=
             (1.0 - kMinCompressionSaving) * static_cast<double>(raw_bytes);
}

Result<std::string> GetElm(std::string_view in, std::string_view root_elm,
                           std::string_view search_elm,
                           std::string_view search_key, int level) {
  if (root_elm.empty()) {
    return Status::InvalidArgument("getElm: rootElm must not be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string out(scanner.header());
  if (out.empty()) out.push_back(kRawMarker);

  struct Candidate {
    size_t start_offset;
    size_t depth;
    bool matched;
  };
  struct SearchFrame {
    size_t depth;
    bool matched;
    KeyWindow window;
  };
  const TagMatcher root(scanner, root_elm);
  const TagMatcher search(scanner, search_elm);
  std::vector<Candidate> candidates;  // open rootElm elements (stack)
  std::vector<SearchFrame> searches;  // open searchElm elements (stack)
  Status error;
  RETURN_IF_ERROR(Walk(
      scanner,
      Visitor{
          [&](size_t tag, std::string_view name, size_t offset, size_t depth) {
            if (root(tag, name)) {
              candidates.push_back({offset, depth, search_elm.empty()});
            }
            if (!search_elm.empty() && search(tag, name)) {
              searches.push_back(
                  {depth, search_key.empty(), KeyWindow(search_key)});
            }
            return true;
          },
          [&](std::string_view text) {
            for (SearchFrame& f : searches) {
              if (!f.matched && f.window.Feed(text)) f.matched = true;
            }
            return true;
          },
          [&](size_t end_offset, size_t depth) {
            if (!searches.empty() && searches.back().depth == depth) {
              // A searchElm subtree closed: on a key match, mark every open
              // candidate within `level` levels above it.
              const bool matched = searches.back().matched;
              searches.pop_back();
              if (matched) {
                for (Candidate& c : candidates) {
                  if (level <= 0 ||
                      depth - c.depth <= static_cast<size_t>(level)) {
                    c.matched = true;
                  }
                }
              }
            }
            if (!candidates.empty() && candidates.back().depth == depth) {
              const Candidate c = candidates.back();
              candidates.pop_back();
              if (c.matched) {
                if (!Keep(budget.Charge(end_offset - c.start_offset),
                          &error)) {
                  return false;
                }
                out.append(
                    in.substr(c.start_offset, end_offset - c.start_offset));
              }
            }
            return true;
          }},
      &error));
  return out;
}

Result<int64_t> FindKeyInElm(std::string_view in, std::string_view search_elm,
                             std::string_view search_key) {
  if (search_elm.empty() && search_key.empty()) {
    return Status::InvalidArgument(
        "findKeyInElm: searchElm and searchKey cannot both be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  // An empty searchElm matches the key against all character data. Else
  // only the outermost open searchElm keeps a window: a nested one's text
  // is a contiguous run of its ancestor's, so it can match only where the
  // ancestor does, and at the same text event.
  const bool any_elm = search_elm.empty();
  const TagMatcher search(scanner, search_elm);
  KeyWindow window(search_key);
  ExpansionBudget budget;
  std::vector<size_t> frames;  // depths of the open searchElm elements
  bool found = false;
  Status error;
  RETURN_IF_ERROR(Walk(
      scanner,
      Visitor{[&](size_t tag, std::string_view name, size_t, size_t depth) {
                if (!any_elm && search(tag, name)) {
                  if (search_key.empty()) {
                    found = true;  // existence test: the first one answers
                    return false;
                  }
                  if (frames.empty()) window.Clear();
                  frames.push_back(depth);
                }
                return true;
              },
              [&](std::string_view text) {
                if (!any_elm) {
                  if (frames.empty()) return true;
                  // Charged per open searchElm, as if each kept a window.
                  if (!Keep(budget.Charge(text.size() * frames.size()),
                            &error)) {
                    return false;
                  }
                }
                found = window.Feed(text);
                return !found;  // the first match ends the walk
              },
              [&](size_t, size_t depth) {
                if (!frames.empty() && frames.back() == depth) {
                  frames.pop_back();
                }
                return true;
              }},
      &error));
  return found ? 1 : 0;
}

Result<std::string> GetElmIndex(std::string_view in,
                                std::string_view parent_elm,
                                std::string_view child_elm, int start_pos,
                                int end_pos) {
  if (child_elm.empty()) {
    return Status::InvalidArgument("getElmIndex: childElm must not be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string out(scanner.header());
  if (out.empty()) out.push_back(kRawMarker);

  struct Frame {
    bool is_parent;       // named parentElm
    int child_count = 0;  // direct children named childElm so far
  };
  struct Capture {
    size_t start_offset;
    size_t depth;
  };
  const TagMatcher parent_match(scanner, parent_elm);
  const TagMatcher child_match(scanner, child_elm);
  // The frame above the fragment roots is named "#root", which a
  // parentElm may spell.
  std::vector<Frame> frames = {{parent_elm == "#root", 0}};
  std::vector<Capture> captures;
  Status error;
  RETURN_IF_ERROR(Walk(
      scanner,
      Visitor{
          [&](size_t tag, std::string_view name, size_t offset, size_t depth) {
            Frame& parent = frames.back();
            if (child_match(tag, name)) {
              const bool parent_ok = parent_elm.empty() ? frames.size() == 1
                                                        : parent.is_parent;
              if (parent_elm.empty() || parent.is_parent) ++parent.child_count;
              if (parent_ok && parent.child_count >= start_pos &&
                  parent.child_count <= end_pos) {
                captures.push_back({offset, depth});
              }
            }
            frames.push_back({!parent_elm.empty() && parent_match(tag, name)});
            return true;
          },
          [](std::string_view) { return true; },
          [&](size_t end_offset, size_t depth) {
            frames.pop_back();
            if (captures.empty() || captures.back().depth != depth) {
              return true;
            }
            const Capture c = captures.back();
            captures.pop_back();
            if (!Keep(budget.Charge(end_offset - c.start_offset), &error)) {
              return false;
            }
            out.append(in.substr(c.start_offset, end_offset - c.start_offset));
            return true;
          }},
      &error));
  return out;
}

Result<std::vector<std::string>> Unnest(std::string_view in,
                                        std::string_view tag) {
  std::vector<std::string> out;
  RETURN_IF_ERROR(UnnestElements(
      in, tag, /*want_text=*/false, /*want_frag=*/true,
      [&out](std::string, std::string frag) {
        out.push_back(std::move(frag));
        return Status::OK();
      }));
  return out;
}

Status UnnestElements(std::string_view in, std::string_view tag,
                      bool want_text, bool want_frag,
                      const UnnestSink& sink) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string_view header = scanner.header();
  std::string prefix =
      header.empty() ? std::string(1, kRawMarker) : std::string(header);
  // The element at [start, end) as a single-fragment value, if asked for.
  auto fragment = [&](size_t start, size_t end) {
    std::string value;
    if (want_frag) {
      value.reserve(prefix.size() + (end - start));
      value = prefix;
      value.append(in.substr(start, end - start));
    }
    return value;
  };
  auto frag_bytes = [&](size_t start, size_t end) -> size_t {
    return want_frag ? prefix.size() + (end - start) : 0;
  };
  struct Capture {
    size_t start_offset;
    size_t depth;
    size_t text_begin;  // where its text starts in `text`
  };
  const TagMatcher tag_match(scanner, tag);
  std::vector<Capture> captures;
  // Character data seen while any capture is open. An element's text
  // content is one contiguous run of it, so nested same-tag captures share
  // this buffer instead of each copying its own; it is emptied whenever
  // the outermost capture closes.
  std::string text;
  Status error;
  return Walk(
      scanner,
      Visitor{[&](size_t id, std::string_view name, size_t offset,
                  size_t depth) {
                if (tag.empty() ? depth == 0 : tag_match(id, name)) {
                  captures.push_back({offset, depth, text.size()});
                }
                return true;
              },
              [&](std::string_view run) {
                if (want_text && !captures.empty()) text.append(run);
                return true;
              },
              [&](size_t end_offset, size_t depth) {
                if (captures.empty() || captures.back().depth != depth) {
                  return true;
                }
                const Capture c = captures.back();
                captures.pop_back();
                const size_t text_bytes = text.size() - c.text_begin;
                if (!Keep(budget.Charge(text_bytes +
                                        frag_bytes(c.start_offset, end_offset)),
                          &error)) {
                  return false;
                }
                std::string own_text = text.substr(c.text_begin);
                if (captures.empty()) text.clear();
                return Keep(sink(std::move(own_text),
                                 fragment(c.start_offset, end_offset)),
                            &error);
              }},
      &error);
}

}  // namespace xorator::xadt
