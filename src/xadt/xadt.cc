#include "xadt/xadt.h"

#include "xadt/scanner.h"

#include <map>

#include "common/str_util.h"
#include "common/varint.h"
#include "ordb/query_guard.h"
#include "xml/serializer.h"

namespace xorator::xadt {

namespace {

// Charges one XADT method call's result expansion against the statement's
// thread-locally bound guard (ordb::CurrentGuard(), null in direct library
// use). The charge is released when the call returns — the caller accounts
// the value it receives — so this caps *peak* decoded-fragment expansion
// during evaluation (DESIGN.md §12).
class ExpansionBudget {
 public:
  ExpansionBudget() : arena_(ordb::CurrentGuard()) {}
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

// The (start, length) of every top-level fragment in an encoded payload.
Result<std::vector<std::pair<size_t, size_t>>> TopLevelRanges(
    std::string_view payload) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner,
                      FragmentScanner::Create(payload));
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t depth = 0;
  size_t open_offset = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    if (event.kind == FragmentScanner::EventKind::kEof) return ranges;
    if (event.kind == FragmentScanner::EventKind::kStart && depth++ == 0) {
      open_offset = event.offset;
    } else if (event.kind == FragmentScanner::EventKind::kEnd && --depth == 0) {
      ranges.emplace_back(open_offset, event.end_offset - open_offset);
    }
  }
}

}  // namespace

bool IsCompressed(std::string_view bytes) {
  auto scanner = FragmentScanner::Create(bytes);
  return scanner.ok() && scanner->compressed();
}

bool HasDirectory(std::string_view bytes) {
  return !bytes.empty() && bytes[0] == kDirectoryMarker;
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

std::string EncodeWithDirectory(const std::vector<const xml::Node*>& fragments,
                                bool compressed) {
  std::string payload = Encode(fragments, compressed);
  auto ranges = TopLevelRanges(payload);
  // A payload the scanner rejects (say, a DOM nested deeper than the
  // lexer's depth limit) is stored without a directory rather than with a
  // short one; the XADT methods then report its error themselves.
  if (!ranges.ok()) return payload;
  std::string out(1, kDirectoryMarker);
  PutVarint(&out, ranges->size());
  for (const auto& [start, len] : *ranges) {
    PutVarint(&out, start);
    PutVarint(&out, len);
  }
  out += payload;
  return out;
}

Result<std::unique_ptr<xml::Node>> Decode(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(bytes));
  // A small value can decode to a much larger tree: every node is charged
  // against the statement's budget, and the scanner polls its guard.
  ExpansionBudget budget;
  auto root = xml::Node::Element("#fragment");
  std::vector<xml::Node*> stack = {root.get()};
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return root;
      case FragmentScanner::EventKind::kStart: {
        RETURN_IF_ERROR(budget.Charge(sizeof(xml::Node) + event.name.size()));
        xml::Node* elem = stack.back()->AddChild(
            xml::Node::Element(std::string(event.name)));
        // Charged before it is stored: a compressed start token can name
        // one long dictionary entry for thousands of attributes.
        RETURN_IF_ERROR(scanner.DecodeAttributes(
            [&](std::string_view name, std::string value) -> Status {
              RETURN_IF_ERROR(budget.Charge(name.size() + value.size()));
              elem->AddAttribute(std::string(name), std::move(value));
              return Status::OK();
            }));
        stack.push_back(elem);
        break;
      }
      case FragmentScanner::EventKind::kEnd:
        stack.pop_back();
        break;
      case FragmentScanner::EventKind::kText:
        RETURN_IF_ERROR(budget.Charge(sizeof(xml::Node) + event.text.size()));
        stack.back()->AddChild(xml::Node::Text(std::string(event.text)));
        break;
    }
  }
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
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    if (event.kind == FragmentScanner::EventKind::kEof) return out;
    if (event.kind == FragmentScanner::EventKind::kText) {
      RETURN_IF_ERROR(budget.Charge(event.text.size()));
      out.append(event.text);
    }
  }
}

void CompressionAdvisor::AddSample(
    const std::vector<const xml::Node*>& fragments) {
  raw_bytes_ += EncodeRaw(fragments).size();
  compressed_bytes_ += EncodeCompressed(fragments).size();
}

bool CompressionAdvisor::UseCompression() const {
  if (raw_bytes_ == 0) return false;
  double saving = 1.0 - static_cast<double>(compressed_bytes_) /
                            static_cast<double>(raw_bytes_);
  return saving >= min_saving_;
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
    // Sliding window over the subtree's character data: only the last
    // search_key.size()-1 bytes are retained, enough to catch a key that
    // straddles two text events, so the frame never copies the whole
    // subtree's text (DESIGN.md section 14).
    std::string window;
  };
  std::vector<Candidate> candidates;  // open rootElm elements (stack)
  std::vector<SearchFrame> searches;  // open searchElm elements (stack)
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return out;
      case FragmentScanner::EventKind::kStart:
        if (event.name == root_elm) {
          candidates.push_back({event.offset, depth, search_elm.empty()});
        }
        if (!search_elm.empty() && event.name == search_elm) {
          searches.push_back({depth, search_key.empty(), {}});
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText:
        for (SearchFrame& f : searches) {
          if (f.matched) continue;
          f.window.append(event.text);
          if (Contains(f.window, search_key)) {
            f.matched = true;
            f.window.clear();
          } else if (f.window.size() >= search_key.size()) {
            f.window.erase(0, f.window.size() - (search_key.size() - 1));
          }
        }
        break;
      case FragmentScanner::EventKind::kEnd: {
        --depth;
        if (!searches.empty() && searches.back().depth == depth) {
          // A searchElm subtree closed: on a key match, mark every open
          // candidate within `level` levels above it.
          SearchFrame frame = std::move(searches.back());
          searches.pop_back();
          if (frame.matched) {
            for (Candidate& c : candidates) {
              if (level <= 0 ||
                  depth - c.depth <= static_cast<size_t>(level)) {
                c.matched = true;
              }
            }
          }
        }
        if (!candidates.empty() && candidates.back().depth == depth) {
          Candidate c = candidates.back();
          candidates.pop_back();
          if (c.matched) {
            RETURN_IF_ERROR(budget.Charge(event.end_offset - c.start_offset));
            out.append(in.substr(c.start_offset,
                                 event.end_offset - c.start_offset));
          }
        }
        break;
      }
    }
  }
}

Result<int64_t> FindKeyInElm(std::string_view in, std::string_view search_elm,
                             std::string_view search_key) {
  if (search_elm.empty() && search_key.empty()) {
    return Status::InvalidArgument(
        "findKeyInElm: searchElm and searchKey cannot both be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  if (search_elm.empty()) {
    // Key against the content of any element: a sliding window over the
    // concatenated character data.
    std::string window;
    while (true) {
      XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
      if (event.kind == FragmentScanner::EventKind::kEof) return 0;
      if (event.kind != FragmentScanner::EventKind::kText) continue;
      window.append(event.text);
      if (Contains(window, search_key)) return 1;
      if (window.size() >= search_key.size()) {
        window.erase(0, window.size() - (search_key.size() - 1));
      }
    }
  }
  struct SearchFrame {
    size_t depth;
    // Sliding window, as in GetElm: keep only the trailing
    // search_key.size()-1 bytes so cross-event matches still land without
    // buffering the subtree's full character data.
    std::string window;
  };
  ExpansionBudget budget;
  std::vector<SearchFrame> searches;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return 0;
      case FragmentScanner::EventKind::kStart:
        if (event.name == search_elm) {
          if (search_key.empty()) return 1;
          searches.push_back({depth, {}});
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText:
        RETURN_IF_ERROR(budget.Charge(event.text.size() * searches.size()));
        for (SearchFrame& f : searches) {
          f.window.append(event.text);
          // Early exit as soon as any tracked element matches.
          if (Contains(f.window, search_key)) return 1;
          if (f.window.size() >= search_key.size()) {
            f.window.erase(0, f.window.size() - (search_key.size() - 1));
          }
        }
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        if (!searches.empty() && searches.back().depth == depth) {
          searches.pop_back();
        }
        break;
    }
  }
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

  if (parent_elm.empty() && scanner.has_directory()) {
    // Directory fast path: the fragment roots are indexed, so the
    // requested positions are sliced without scanning fragment bodies.
    int count = 0;
    for (const auto& [start, end] : scanner.top_ranges()) {
      XO_ASSIGN_OR_RETURN(std::string_view name, scanner.NameAt(start));
      if (name != child_elm) continue;
      ++count;
      if (count >= start_pos && count <= end_pos) {
        RETURN_IF_ERROR(budget.Charge(end - start));
        out.append(in.substr(start, end - start));
      }
      if (count >= end_pos) break;
    }
    return out;
  }

  struct Frame {
    std::string_view name;
    int child_count = 0;  // direct children named child_elm so far
  };
  struct Capture {
    size_t start_offset;
    size_t depth;
  };
  std::vector<Frame> frames = {{std::string_view("#root"), 0}};
  std::vector<Capture> captures;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return out;
      case FragmentScanner::EventKind::kStart: {
        Frame& parent = frames.back();
        if (event.name == child_elm) {
          bool parent_ok = parent_elm.empty()
                               ? frames.size() == 1
                               : parent.name == parent_elm;
          if (parent_elm.empty() || parent.name == parent_elm) {
            ++parent.child_count;
          }
          if (parent_ok && parent.child_count >= start_pos &&
              parent.child_count <= end_pos) {
            captures.push_back({event.offset, depth});
          }
        }
        frames.push_back({event.name, 0});
        ++depth;
        break;
      }
      case FragmentScanner::EventKind::kText:
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        frames.pop_back();
        if (!captures.empty() && captures.back().depth == depth) {
          Capture c = captures.back();
          captures.pop_back();
          RETURN_IF_ERROR(budget.Charge(event.end_offset - c.start_offset));
          out.append(
              in.substr(c.start_offset, event.end_offset - c.start_offset));
        }
        break;
    }
  }
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
  if (tag.empty() && scanner.has_directory() && !want_text) {
    // Directory fast path: slice the indexed fragment roots directly.
    for (const auto& [start, end] : scanner.top_ranges()) {
      RETURN_IF_ERROR(budget.Charge(frag_bytes(start, end)));
      RETURN_IF_ERROR(sink(std::string(), fragment(start, end)));
    }
    return Status::OK();
  }
  struct Capture {
    size_t start_offset;
    size_t depth;
    size_t text_begin;  // where its text starts in `text`
  };
  std::vector<Capture> captures;
  // Character data seen while any capture is open. An element's text
  // content is one contiguous run of it, so nested same-tag captures share
  // this buffer instead of each copying its own; it is emptied whenever
  // the outermost capture closes.
  std::string text;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return Status::OK();
      case FragmentScanner::EventKind::kStart:
        if (tag.empty() ? depth == 0 : event.name == tag) {
          captures.push_back({event.offset, depth, text.size()});
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText:
        if (want_text && !captures.empty()) text.append(event.text);
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        if (!captures.empty() && captures.back().depth == depth) {
          Capture c = captures.back();
          captures.pop_back();
          size_t text_bytes = text.size() - c.text_begin;
          RETURN_IF_ERROR(budget.Charge(
              text_bytes + frag_bytes(c.start_offset, event.end_offset)));
          std::string own_text = text.substr(c.text_begin);
          if (captures.empty()) text.clear();
          RETURN_IF_ERROR(sink(std::move(own_text),
                               fragment(c.start_offset, event.end_offset)));
        }
        break;
    }
  }
}

}  // namespace xorator::xadt
