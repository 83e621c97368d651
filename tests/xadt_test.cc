#include <gtest/gtest.h>

#include <limits>

#include "common/str_util.h"
#include "common/varint.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xadt {
namespace {

std::string EncodeXml(const std::string& xml_text, bool compressed) {
  auto frag = xml::ParseFragment(xml_text);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  return Encode(roots, compressed);
}

class XadtFormatTest : public ::testing::TestWithParam<bool> {};

TEST_P(XadtFormatTest, RoundTripsXml) {
  const char* kXml =
      "<SPEECH><SPEAKER>ROMEO</SPEAKER>"
      "<LINE>But soft <STAGEDIR>Rising</STAGEDIR> tail</LINE></SPEECH>"
      "<SPEECH><SPEAKER a=\"1\">JULIET</SPEAKER></SPEECH>";
  std::string bytes = EncodeXml(kXml, GetParam());
  EXPECT_EQ(IsCompressed(bytes), GetParam());
  auto xml_text = ToXmlString(bytes);
  ASSERT_TRUE(xml_text.ok());
  EXPECT_EQ(*xml_text, kXml);
}

TEST_P(XadtFormatTest, TextContent) {
  std::string bytes = EncodeXml("<s>a</s><s>b<t>c</t></s>", GetParam());
  auto text = TextContent(bytes);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "abc");
}

TEST_P(XadtFormatTest, GetElmSelfMatch) {
  // The paper's QE1 usage: rootElm == searchElm selects the elements whose
  // own text contains the keyword.
  std::string bytes = EncodeXml(
      "<LINE>my friend is here</LINE><LINE>no match</LINE>", GetParam());
  auto out = GetElm(bytes, "LINE", "LINE", "friend");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(IsCompressed(*out), GetParam());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>my friend is here</LINE>");
}

TEST_P(XadtFormatTest, GetElmDescendantSearch) {
  std::string bytes = EncodeXml(
      "<LINE>one <STAGEDIR>Rising</STAGEDIR></LINE>"
      "<LINE>two <STAGEDIR>Falling</STAGEDIR></LINE>"
      "<LINE>three</LINE>",
      GetParam());
  auto rising = GetElm(bytes, "LINE", "STAGEDIR", "Rising");
  ASSERT_TRUE(rising.ok());
  EXPECT_EQ(*ToXmlString(*rising),
            "<LINE>one <STAGEDIR>Rising</STAGEDIR></LINE>");
  // Empty searchKey: existence of the element suffices.
  auto with_sd = GetElm(bytes, "LINE", "STAGEDIR", "");
  ASSERT_TRUE(with_sd.ok());
  auto decoded = Decode(*with_sd);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->ChildElements().size(), 2u);
}

TEST_P(XadtFormatTest, GetElmEmptySearchElmReturnsAllRoots) {
  std::string bytes =
      EncodeXml("<a>1</a><b>2</b><a>3</a>", GetParam());
  auto out = GetElm(bytes, "a", "", "ignored-key");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<a>1</a><a>3</a>");
}

TEST_P(XadtFormatTest, GetElmLevelLimit) {
  std::string bytes = EncodeXml(
      "<top><mid><deep>needle</deep></mid></top>", GetParam());
  // deep is 2 levels below top: level 1 misses it, level 2 finds it.
  auto l1 = GetElm(bytes, "top", "deep", "needle", 1);
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(*ToXmlString(*l1), "");
  auto l2 = GetElm(bytes, "top", "deep", "needle", 2);
  ASSERT_TRUE(l2.ok());
  EXPECT_NE(ToXmlString(*l2)->find("needle"), std::string::npos);
  auto any = GetElm(bytes, "top", "deep", "needle");
  ASSERT_TRUE(any.ok());
  EXPECT_NE(ToXmlString(*any)->find("needle"), std::string::npos);
}

TEST_P(XadtFormatTest, GetElmComposition) {
  // Output of getElm feeds another getElm (the paper's composition).
  std::string bytes = EncodeXml(
      "<aTuple><title>Join Order</title><authors>"
      "<author>Alice</author><author>Bob</author></authors></aTuple>"
      "<aTuple><title>Other</title><authors>"
      "<author>Carol</author></authors></aTuple>",
      GetParam());
  auto tuples = GetElm(bytes, "aTuple", "title", "Join");
  ASSERT_TRUE(tuples.ok());
  auto authors = GetElm(*tuples, "author", "", "");
  ASSERT_TRUE(authors.ok());
  EXPECT_EQ(*ToXmlString(*authors),
            "<author>Alice</author><author>Bob</author>");
}

TEST_P(XadtFormatTest, FindKeyInElm) {
  std::string bytes = EncodeXml(
      "<SPEAKER>HAMLET</SPEAKER><SPEAKER>YORICK</SPEAKER>", GetParam());
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", "HAMLET"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", "ROMEO"), 0);
  // Empty key: existence test.
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", ""), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "GHOST", ""), 0);
  // Empty element: any element's content.
  EXPECT_EQ(*FindKeyInElm(bytes, "", "YORICK"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "", "nothing"), 0);
  // Both empty: error per the paper.
  EXPECT_FALSE(FindKeyInElm(bytes, "", "").ok());
}

TEST_P(XadtFormatTest, GetElmIndexTopLevel) {
  // The paper's QE2: second LINE of the fragment (empty parentElm means the
  // childElm is the root element of the XADT value).
  std::string bytes = EncodeXml(
      "<LINE>first</LINE><LINE>second</LINE><LINE>third</LINE>", GetParam());
  auto out = GetElmIndex(bytes, "", "LINE", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>second</LINE>");
  auto range = GetElmIndex(bytes, "", "LINE", 2, 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*ToXmlString(*range), "<LINE>second</LINE><LINE>third</LINE>");
}

TEST_P(XadtFormatTest, GetElmIndexWithParent) {
  std::string bytes = EncodeXml(
      "<authors><author>A1</author><author>A2</author></authors>"
      "<authors><author>B1</author><author>B2</author>"
      "<author>B3</author></authors>",
      GetParam());
  auto out = GetElmIndex(bytes, "authors", "author", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<author>A2</author><author>B2</author>");
  EXPECT_FALSE(GetElmIndex(bytes, "authors", "", 1, 1).ok());
}

TEST_P(XadtFormatTest, GetElmIndexSameTagOrder) {
  // Sibling positions count same-tag siblings only: OTHER children do not
  // shift LINE positions.
  std::string bytes = EncodeXml(
      "<sp><other>x</other><LINE>first</LINE><other>y</other>"
      "<LINE>second</LINE></sp>",
      GetParam());
  auto out = GetElmIndex(bytes, "sp", "LINE", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>second</LINE>");
}

TEST_P(XadtFormatTest, UnnestPaperExample) {
  // Figure 9 of the paper.
  std::string bytes = EncodeXml(
      "<speaker>s1</speaker><speaker>s2</speaker>", GetParam());
  auto rows = Unnest(bytes, "speaker");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(*TextContent((*rows)[0]), "s1");
  EXPECT_EQ(*TextContent((*rows)[1]), "s2");
  // Empty tag: every top-level fragment.
  auto all = Unnest(bytes, "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST_P(XadtFormatTest, EmptyValueBehaves) {
  std::string bytes = Encode({}, GetParam());
  EXPECT_EQ(*ToXmlString(bytes), "");
  EXPECT_EQ(*FindKeyInElm(bytes, "x", ""), 0);
  auto out = GetElm(bytes, "x", "", "");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "");
}

// One-pass unnest: the text captured by the scan that finds each element
// equals TextContent of that element's fragment, and asking for the text
// changes neither the fragments nor their order.
void ExpectOnePassText(const std::string& bytes, std::string_view tag) {
  auto frags = Unnest(bytes, tag);
  ASSERT_TRUE(frags.ok()) << frags.status().ToString();
  std::vector<std::string> texts;
  std::vector<std::string> both_texts;
  std::vector<std::string> both_frags;
  size_t neither = 0;
  ASSERT_TRUE(UnnestElements(bytes, tag, true, false,
                             [&](std::string text, std::string frag) {
                               EXPECT_TRUE(frag.empty());
                               texts.push_back(std::move(text));
                               return Status::OK();
                             })
                  .ok());
  ASSERT_TRUE(UnnestElements(bytes, tag, true, true,
                             [&](std::string text, std::string frag) {
                               both_texts.push_back(std::move(text));
                               both_frags.push_back(std::move(frag));
                               return Status::OK();
                             })
                  .ok());
  ASSERT_TRUE(UnnestElements(bytes, tag, false, false,
                             [&](std::string text, std::string frag) {
                               EXPECT_TRUE(text.empty() && frag.empty());
                               ++neither;
                               return Status::OK();
                             })
                  .ok());
  ASSERT_EQ(texts.size(), frags->size());
  ASSERT_EQ(both_texts.size(), frags->size());
  EXPECT_EQ(neither, frags->size());
  for (size_t i = 0; i < frags->size(); ++i) {
    auto expected = TextContent((*frags)[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(texts[i], *expected) << "element " << i;
    EXPECT_EQ(both_texts[i], *expected) << "element " << i;
    EXPECT_EQ(both_frags[i], (*frags)[i]) << "element " << i;
  }
}

TEST_P(XadtFormatTest, UnnestTextEqualsTextContentOfFragment) {
  // Nested same-tag elements: the inner one closes (and is emitted) first.
  std::string nested =
      EncodeXml("<a>x<a>y<b>z</b><a>q</a></a>w</a><c><a>v</a></c>", GetParam());
  ExpectOnePassText(nested, "a");
  ExpectOnePassText(nested, "b");
  ExpectOnePassText(nested, "");
  // Entities and CDATA decode to the same text either way.
  std::string escaped = EncodeXml(
      "<a>fish &amp; chips &lt;3</a><a>x<![CDATA[<b>&amp;</b>]]>y</a>",
      GetParam());
  ExpectOnePassText(escaped, "a");
  ExpectOnePassText(escaped, "");
  // Comments and processing instructions split a text run.
  std::string split = EncodeXml(
      "<a>one<!-- note -->two<?pi data?>three<b>four</b></a>", GetParam());
  ExpectOnePassText(split, "a");
  ExpectOnePassText(split, "b");
}

TEST(XadtOnePassUnnestTest, RawCommentsAndInstructionsSplitText) {
  // Raw values hold markup the DOM drops, so build them directly.
  const std::string raw =
      "R<a>one<!-- c -->two<?pi x?>three<![CDATA[&four]]>&amp;five</a>"
      "<a><a>in<!--x-->ner</a>outer</a>";
  ExpectOnePassText(raw, "a");
  ExpectOnePassText(raw, "");
  std::vector<std::string> texts;
  ASSERT_TRUE(UnnestElements(raw, "a", true, false,
                             [&](std::string text, std::string) {
                               texts.push_back(std::move(text));
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(texts, (std::vector<std::string>{"onetwothree&four&five",
                                             "inner", "innerouter"}));
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, XadtFormatTest,
                         ::testing::Values(false, true));

TEST(XadtCompressionTest, RepeatedTagsCompressWell) {
  std::string xml_text;
  for (int i = 0; i < 200; ++i) {
    xml_text += "<LINE>word</LINE>";
  }
  std::string raw = EncodeXml(xml_text, false);
  std::string compressed = EncodeXml(xml_text, true);
  EXPECT_LT(static_cast<double>(compressed.size()),
            static_cast<double>(raw.size()) * 0.6);
}

TEST(XadtCompressionTest, UniqueTagsCompressPoorly) {
  // A single small fragment: the dictionary overhead dominates.
  std::string raw = EncodeXml("<a>x</a>", false);
  std::string compressed = EncodeXml("<a>x</a>", true);
  EXPECT_GE(compressed.size() + 2, raw.size());
}

TEST(XadtCompressionTest, ChooserFollowsTwentyPercentRule) {
  auto frag = xml::ParseFragment(
      "<LINE>a</LINE><LINE>b</LINE><LINE>c</LINE><LINE>d</LINE>"
      "<LINE>e</LINE><LINE>f</LINE><LINE>g</LINE><LINE>h</LINE>");
  ASSERT_TRUE(frag.ok());
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  const size_t raw = EncodeRaw(roots).size();
  EXPECT_GT(raw, 0u);
  // Many repeated tags: compression wins.
  EXPECT_TRUE(ChooseCompression(raw, EncodeCompressed(roots).size()));

  // The boundary: saving exactly 20% compresses, one byte less stays raw,
  // and with no raw bytes there is nothing to save.
  EXPECT_TRUE(ChooseCompression(100, 80));
  EXPECT_FALSE(ChooseCompression(100, 81));
  EXPECT_FALSE(ChooseCompression(0, 0));
}

TEST(XadtErrorsTest, BadInputsRejected) {
  EXPECT_FALSE(Decode("Zgarbage").ok());
  EXPECT_FALSE(GetElm("Rx", "", "a", "b").ok());
  EXPECT_FALSE(GetElmIndex("R<a/>", "a", "", 1, 1).ok());
  // Truncated compressed payloads fail cleanly.
  std::string bytes = EncodeXml("<a><b>text</b></a>", true);
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(Decode(truncated).ok());
  // 'D' is no representation: a value that starts with it fails like any
  // unknown marker, whatever follows (here the count and ranges of a
  // fragment directory, some chosen to wrap or overrun).
  auto d_value = [](std::initializer_list<uint64_t> varints,
                    const char* payload) {
    std::string value("D", 1);
    for (uint64_t n : varints) PutVarint(&value, n);
    value += payload;
    return value;
  };
  const std::string unknown[] = {
      d_value({5}, ""), d_value({0}, ""),
      d_value({1, std::numeric_limits<uint64_t>::max() - 2, 16},
              "R<a>payload</a>"),
      d_value({1, 0, 4096}, "R<a/>"), d_value({uint64_t{1} << 32}, "R<a/>")};
  for (const std::string& bad : unknown) {
    EXPECT_EQ(FragmentScanner::Create(bad).status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(Decode(bad).status().code(), StatusCode::kParseError);
    EXPECT_EQ(GetElm(bad, "a", "", "").status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(FindKeyInElm(bad, "a", "x").status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(GetElmIndex(bad, "", "a", 1, 1).status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(Unnest(bad, "").status().code(), StatusCode::kParseError);
    EXPECT_FALSE(IsCompressed(bad));
  }
}

TEST(XadtStoredValueTest, EscapedRunsLongerThanTheParserLimitStillScan) {
  // 600 KB of '<' in CDATA parses under the 1 MiB token limit but is stored
  // escaped (2.4 MB); text next to CDATA is stored as one run. Stored raw
  // values are not held to the parse-time size limits.
  std::string doc_text = "<doc><item><![CDATA[" + std::string(600000, '<') +
                         "]]></item><item>x<![CDATA[&]]></item></doc>";
  auto doc = xml::ParseDocument(doc_text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : doc->root->children()) roots.push_back(c.get());
  std::string plain = Encode(roots, /*compressed=*/false);
  auto elm = GetElm(plain, "item", "", "");
  ASSERT_TRUE(elm.ok()) << elm.status().ToString();
  EXPECT_EQ(*elm, plain);
  auto index = GetElmIndex(plain, "", "item", 1, 2);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(*index, plain);
  auto decoded = Decode(plain);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ((*decoded)->children().size(), 2u);
  EXPECT_EQ((*decoded)->children()[0]->TextContent().size(), 600000u);
  EXPECT_EQ((*decoded)->children()[1]->TextContent(), "x&");
}

TEST(XadtGrammarTest, RawScansRejectWhatTheParserRejects) {
  // One lexer: a raw value the XML parser rejects is rejected by every
  // method, scans included, not only by Decode.
  for (std::string bad : {"<a b>x</a>", "<1a>x</1a>"}) {
    EXPECT_FALSE(xml::ParseFragment(bad).ok()) << bad;
    std::string value = "R" + bad;
    EXPECT_FALSE(FindKeyInElm(value, "", "x").ok()) << bad;
    EXPECT_FALSE(GetElm(value, "a", "", "").ok()) << bad;
    EXPECT_FALSE(Decode(value).ok()) << bad;
  }
}

std::string TreeShape(const xml::Node& node) {
  if (node.is_text()) return "T[" + node.text() + "]";
  std::string out = "E[" + node.name();
  for (const xml::Attribute& a : node.attributes()) {
    out += " " + a.name + "=" + a.value;
  }
  for (const auto& c : node.children()) out += TreeShape(*c);
  return out + "]";
}

TEST(XadtDecodeTest, RawAndCompressedDecodeToTheSameTree) {
  // Decode inverts Encode in both representations, whitespace-only text
  // nodes included.
  xml::ParseOptions keep;
  keep.strip_whitespace_text = false;
  auto frag =
      xml::ParseFragment("<s k=\"v\">\n  <l>a</l> <l> </l>\n</s>", keep);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  auto raw = Decode(Encode(roots, false));
  auto compressed = Decode(Encode(roots, true));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  EXPECT_EQ(TreeShape(**raw), TreeShape(**frag));
  EXPECT_EQ(TreeShape(**compressed), TreeShape(**frag));
}

TEST(XadtPropertyTest, RandomDocsRoundTripBothFormats) {
  auto dtd = xml::ParseDtd(datagen::kSigmodDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("PP");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string raw = Encode(roots, false);
    std::string compressed = Encode(roots, true);
    auto raw_xml = ToXmlString(raw);
    auto comp_xml = ToXmlString(compressed);
    ASSERT_TRUE(raw_xml.ok());
    ASSERT_TRUE(comp_xml.ok());
    EXPECT_EQ(*raw_xml, *comp_xml) << "seed " << seed;
    EXPECT_EQ(*TextContent(raw), *TextContent(compressed));
  }
}

// ---------------------------------------------------------------------------
// Differential: every method answers as the DOM oracle does on every
// encoding of one fragment — the raw XML text as written (comments, CDATA
// and entities kept) and the raw and compressed encodings of its DOM.

// An XADT result as comparable text: the XML it holds, serialized from its
// decoded tree (so a raw value's quoting and comments do not show), or its
// error code.
std::string Show(const Result<std::string>& value) {
  if (!value.ok()) {
    return "error " + std::string(StatusCodeToString(value.status().code()));
  }
  auto root = Decode(*value);
  if (!root.ok()) return "undecodable result";
  std::string out;
  for (const auto& child : (*root)->children()) xml::SerializeTo(*child, &out);
  return out;
}

std::string Show(const Result<int64_t>& found) {
  if (!found.ok()) {
    return "error " + std::string(StatusCodeToString(found.status().code()));
  }
  return std::to_string(*found);
}

std::string ShowUnnest(std::string_view bytes, std::string_view tag) {
  std::string out;
  Status scanned = UnnestElements(bytes, tag, true, true,
                                  [&](std::string text, std::string frag) {
                                    out += "[" + text + "|" + Show(frag) + "]";
                                    return Status::OK();
                                  });
  if (!scanned.ok()) {
    return "error " + std::string(StatusCodeToString(scanned.code()));
  }
  return out;
}

// The names and keys one case asks every method about.
struct MethodCase {
  std::string xml;
  std::string root;    // getElm rootElm; getElmIndex childElm; unnest tag
  std::string search;  // searchElm; getElmIndex parentElm
  std::string key;
};

// Every method's answer for `c` on `bytes`, one line per call.
std::string AllAnswers(const std::string& bytes, const MethodCase& c) {
  std::string out;
  for (const std::string& elm : {c.search, std::string()}) {
    for (const std::string& key : {c.key, std::string(), c.key.substr(1)}) {
      out += "findKeyInElm(" + elm + "," + key + ")=" +
             Show(FindKeyInElm(bytes, elm, key)) + "\n";
      for (int level : {0, 1, 2, 3}) {
        out += "getElm(" + c.root + "," + elm + "," + key + "," +
               std::to_string(level) + ")=" +
               Show(GetElm(bytes, c.root, elm, key, level)) + "\n";
      }
    }
    for (auto [from, to] : {std::pair{1, 1}, {2, 3}, {1, 100}}) {
      out += "getElmIndex(" + elm + "," + c.root + "," +
             std::to_string(from) + "," + std::to_string(to) + ")=" +
             Show(GetElmIndex(bytes, elm, c.root, from, to)) + "\n";
    }
  }
  out += "unnest(" + c.root + ")=" + ShowUnnest(bytes, c.root) + "\n";
  out += "unnest()=" + ShowUnnest(bytes, "") + "\n";
  auto text = TextContent(bytes);
  out += "text=" + (text.ok() ? *text : "error") + "\n";
  return out;
}

// Ground truth from the DOM, in AllAnswers' format: the paper's method
// definitions (xadt.h) evaluated over the parsed tree, results listed in
// the order their elements close.
class DomOracle {
 public:
  explicit DomOracle(const xml::Node& fragment) : fragment_(fragment) {}

  std::string AllAnswers(const MethodCase& c) const {
    std::string out;
    for (const std::string& elm : {c.search, std::string()}) {
      for (const std::string& key : {c.key, std::string(), c.key.substr(1)}) {
        out += "findKeyInElm(" + elm + "," + key + ")=" + FindKey(elm, key) +
               "\n";
        for (int level : {0, 1, 2, 3}) {
          out += "getElm(" + c.root + "," + elm + "," + key + "," +
                 std::to_string(level) + ")=" +
                 GetElm(c.root, elm, key, level) + "\n";
        }
      }
      for (auto [from, to] : {std::pair{1, 1}, {2, 3}, {1, 100}}) {
        out += "getElmIndex(" + elm + "," + c.root + "," +
               std::to_string(from) + "," + std::to_string(to) + ")=" +
               GetElmIndex(elm, c.root, from, to) + "\n";
      }
    }
    out += "unnest(" + c.root + ")=" + Unnest(c.root) + "\n";
    out += "unnest()=" + Unnest("") + "\n";
    out += "text=" + fragment_.TextContent() + "\n";
    return out;
  }

 private:
  // Every element below the fragment root, in the order it closes, with
  // its depth (the roots at 0).
  std::vector<std::pair<const xml::Node*, int>> PostOrder() const {
    std::vector<std::pair<const xml::Node*, int>> out;
    auto visit = [&](auto& self, const xml::Node& n, int depth) -> void {
      for (const auto& child : n.children()) {
        if (child->is_element()) self(self, *child, depth + 1);
      }
      out.emplace_back(&n, depth);
    };
    for (const auto& root : fragment_.children()) {
      if (root->is_element()) visit(visit, *root, 0);
    }
    return out;
  }

  static std::string Serialize(
      const std::vector<const xml::Node*>& nodes) {
    std::string out;
    for (const xml::Node* n : nodes) xml::SerializeTo(*n, &out);
    return out;
  }

  std::string FindKey(const std::string& elm, const std::string& key) const {
    if (elm.empty() && key.empty()) return "error InvalidArgument";
    if (elm.empty()) return Contains(fragment_.TextContent(), key) ? "1" : "0";
    for (const auto& [n, depth] : PostOrder()) {
      if (n->name() == elm && Contains(n->TextContent(), key)) return "1";
    }
    return "0";
  }

  // True if `c` holds a `search` element within `level` levels (itself
  // included) whose text contains `key`.
  static bool Holds(const xml::Node& c, const std::string& search,
                    const std::string& key, int level, int below = 0) {
    if (level > 0 && below > level) return false;
    if (c.name() == search && Contains(c.TextContent(), key)) return true;
    for (const auto& child : c.children()) {
      if (child->is_element() &&
          Holds(*child, search, key, level, below + 1)) {
        return true;
      }
    }
    return false;
  }

  std::string GetElm(const std::string& root, const std::string& search,
                     const std::string& key, int level) const {
    std::vector<const xml::Node*> picked;
    for (const auto& [n, depth] : PostOrder()) {
      if (n->name() == root &&
          (search.empty() || Holds(*n, search, key, level))) {
        picked.push_back(n);
      }
    }
    return Serialize(picked);
  }

  std::string GetElmIndex(const std::string& parent, const std::string& child,
                          int from, int to) const {
    std::vector<const xml::Node*> picked;
    for (const auto& [n, depth] : PostOrder()) {
      if (n->name() != child) continue;
      const bool parent_ok =
          parent.empty() ? depth == 0
                         : depth > 0 && n->parent()->name() == parent;
      if (!parent_ok) continue;
      int position = 0;
      for (const auto& sibling : n->parent()->children()) {
        if (sibling->is_element() && sibling->name() == child) ++position;
        if (sibling.get() == n) break;
      }
      if (position >= from && position <= to) picked.push_back(n);
    }
    return Serialize(picked);
  }

  std::string Unnest(const std::string& tag) const {
    std::string out;
    for (const auto& [n, depth] : PostOrder()) {
      if (tag.empty() ? depth == 0 : n->name() == tag) {
        out.append("[").append(n->TextContent()).append("|");
        out.append(Serialize({n})).append("]");
      }
    }
    return out;
  }

  const xml::Node& fragment_;
};

// Checks that all encodings of `c.xml` answer as the DOM oracle does;
// returns the answers.
std::string ExpectEncodingsAgree(const MethodCase& c) {
  xml::ParseOptions keep;
  keep.strip_whitespace_text = false;
  auto frag = xml::ParseFragment(c.xml, keep);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  if (!frag.ok()) return "";
  std::vector<const xml::Node*> roots;
  for (const auto& child : (*frag)->children()) roots.push_back(child.get());
  const std::string expected = DomOracle(**frag).AllAnswers(c);
  const std::pair<const char*, std::string> encodings[] = {
      {"raw text", "R" + c.xml},
      {"raw", EncodeRaw(roots)},
      {"compressed", EncodeCompressed(roots)}};
  for (const auto& [name, bytes] : encodings) {
    EXPECT_EQ(AllAnswers(bytes, c), expected) << name << " of " << c.xml;
  }
  return expected;
}

TEST(XadtDifferentialTest, MethodsAgreeAcrossEncodings) {
  const std::string kLevels =
      "<r><a>key</a><b><a>key</a></b><c><b><a>key</a></b></c></r>"
      "<r><b><c><a>key</a></c></b></r>";
  const MethodCase cases[] = {
      // Keys that straddle text events: around a child element, a CDATA
      // section, a comment and an entity.
      {"<a><t>Jo<b/>in</t><t>Jo</t><t>in</t></a><t>xJ<![CDATA[oi]]>nx</t>",
       "t", "t", "Join"},
      {"<a><t>Jo<!-- c -->in</t><t>J&amp;oin</t></a><a><t>&amp;o</t></a>",
       "a", "t", "J&o"},
      // Nested same-name search elements, and candidates inside them.
      {"<s><s>x</s>Jo<s>Jo</s>in<s><s>Join</s></s></s><s>Join</s>", "s", "s",
       "Join"},
      {"<s>Jo<s/>in</s><s>J<s>o</s>in</s><s><s>Jo</s><s>in</s></s>", "s", "s",
       "Join"},
      // Level-limited getElm: the key sits 1, 2 and 3 levels down.
      {kLevels, "r", "a", "key"},
      // Empty elements in both spellings, and empty roots.
      {"<e/><e></e><e><f/></e><g>k</g><e>k<f></f></e>", "e", "f", "k"},
      // Mixed content with comments, a processing instruction, entities
      // and CDATA inside text.
      {"<m>one<!--x-->two<?pi y?>&lt;three&gt;<![CDATA[<four/>&]]>five"
       "<n>six</n>seven</m>",
       "m", "n", "e<fo"},
      // Attributes are skipped by every scan.
      {"<p k=\"Join\" j='x'><q z=\"&amp;\">no</q></p><p><q>Join</q></p>", "p",
       "q", "Join"},
  };
  for (const MethodCase& c : cases) ExpectEncodingsAgree(c);
  // Spot answers, so the oracle cannot be wrong alike.
  EXPECT_EQ(*FindKeyInElm("R<t>xJ<![CDATA[oi]]>nx</t>", "t", "Join"), 1);
  EXPECT_EQ(*FindKeyInElm(EncodeXml("<s>Jo<s/>in</s>", true), "s", "Join"), 1);
  EXPECT_EQ(*FindKeyInElm(EncodeXml("<a><t>Jo</t><t>in</t></a>", true), "t",
                          "Join"),
            0);
  EXPECT_EQ(*ToXmlString(*GetElm(EncodeXml(kLevels, true), "r", "a",
                                 "key", 1)),
            "<r><a>key</a><b><a>key</a></b><c><b><a>key</a></b></c></r>");
  EXPECT_EQ(*ToXmlString(*GetElm(EncodeXml(kLevels, true), "b", "a",
                                 "key", 1)),
            "<b><a>key</a></b><b><a>key</a></b>");
}

TEST(XadtDifferentialTest, MultiByteVarintsAgreeAcrossEncodings) {
  // Text runs on both sides of the one-byte varint boundary and past the
  // two-byte one, keyed at their ends.
  for (size_t n : {127u, 128u, 16384u}) {
    std::string run(n - 4, 'x');
    ExpectEncodingsAgree({"<a><t>" + run + "Join</t></a><a><t>" + run +
                              "</t></a>",
                          "a", "t", "Join"});
  }
  // A dictionary of 200 names: tag ids of two bytes, and names past the
  // first 64 ids matched by name.
  std::string xml = "<root>";
  for (int i = 0; i < 200; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    xml += "<" + name + " a" + std::to_string(i) + "=\"" +
           std::string(130, 'v') + "\">" + name + "</" + name + ">";
  }
  xml += "<e150><e3>deep</e3></e150></root>";
  for (const char* search : {"e3", "e63", "e64", "e127", "e128", "e150"}) {
    std::string answers = ExpectEncodingsAgree({xml, "e150", search, "e"});
    EXPECT_NE(answers.find("findKeyInElm(" + std::string(search) + ",e)=1"),
              std::string::npos)
        << search;
  }
  EXPECT_EQ(*ToXmlString(*GetElm(EncodeXml(xml, true), "e150", "e3", "dee")),
            "<e150><e3>deep</e3></e150>");
}

// ---------------------------------------------------------------------------
// Golden table: malformed compressed values and the status every method
// returns for them.

std::string Varint(uint64_t v) {
  std::string out;
  PutVarint(&out, v);
  return out;
}

// 'C' + a dictionary of `names` + `tokens`.
std::string Compressed(const std::vector<std::string>& names,
                       const std::string& tokens) {
  std::string out = "C";
  out += Varint(names.size());
  for (const std::string& n : names) out += Varint(n.size()) + n;
  return out + tokens;
}

TEST(XadtMalformedCompressedTest, GoldenStatusCodes) {
  const std::string kStart = "\x01";
  const std::string kEnd = "\x02";
  const std::string kText = "\x03";
  const std::string a_open = kStart + Varint(0) + Varint(0);
  struct Golden {
    const char* what;
    std::string value;
    StatusCode code;
  };
  const Golden table[] = {
      {"truncated varint at the end", Compressed({"a"}, kStart + "\x80"),
       StatusCode::kCorruption},
      {"truncated text length", Compressed({"a"}, a_open + kText + "\xff"),
       StatusCode::kCorruption},
      {"overlong varint", Compressed({"a"}, kStart + std::string(11, '\xff')),
       StatusCode::kCorruption},
      {"truncated dictionary count", "C\x80", StatusCode::kCorruption},
      {"tag id == dictionary size", Compressed({"a"}, kStart + Varint(1)),
       StatusCode::kParseError},
      {"attribute name id out of range",
       Compressed({"a"}, kStart + Varint(0) + Varint(1) + Varint(1) +
                             Varint(1) + "x" + kEnd),
       StatusCode::kParseError},
      {"attribute length overrun",
       Compressed({"a", "b"}, kStart + Varint(0) + Varint(1) + Varint(1) +
                                  Varint(5) + "x"),
       StatusCode::kParseError},
      {"text length overrun", Compressed({"a"}, a_open + kText + "\x05" + "ab"),
       StatusCode::kParseError},
      {"unbalanced end token", Compressed({"a"}, kEnd),
       StatusCode::kParseError},
      {"end token before a balanced element", Compressed({"a"}, kEnd + a_open),
       StatusCode::kParseError},
      {"end token past the root",
       Compressed({"a"}, a_open + kEnd + kEnd), StatusCode::kParseError},
      {"element left open", Compressed({"a"}, a_open + kText + "\x01x"),
       StatusCode::kParseError},
      {"unknown opcode", Compressed({"a"}, a_open + "\x7f"),
       StatusCode::kParseError},
      {"dictionary count exceeds value size", "C\x05",
       StatusCode::kParseError},
      {"truncated dictionary", "C\x01\x05" "a", StatusCode::kParseError},
  };
  for (const Golden& g : table) {
    SCOPED_TRACE(g.what);
    EXPECT_EQ(FindKeyInElm(g.value, "a", "zz").status().code(), g.code);
    EXPECT_EQ(FindKeyInElm(g.value, "", "zz").status().code(), g.code);
    EXPECT_EQ(GetElm(g.value, "a", "a", "zz").status().code(), g.code);
    EXPECT_EQ(GetElmIndex(g.value, "a", "a", 1, 1).status().code(), g.code);
    EXPECT_EQ(Unnest(g.value, "a").status().code(), g.code);
    EXPECT_EQ(TextContent(g.value).status().code(), g.code);
    EXPECT_EQ(Decode(g.value).status().code(), g.code);
  }
  // A match before a malformed tail still answers: the scan stops at the
  // match, before it reaches the damage. The methods that read the whole
  // value report it.
  const std::string match_then_damage =
      Compressed({"a"}, a_open + kText + Varint(4) + "Join" + kEnd + "\x7f");
  auto found = FindKeyInElm(match_then_damage, "a", "Join");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(*found, 1);
  auto anywhere = FindKeyInElm(match_then_damage, "", "oin");
  ASSERT_TRUE(anywhere.ok()) << anywhere.status().ToString();
  EXPECT_EQ(*anywhere, 1);
  auto exists = FindKeyInElm(match_then_damage, "a", "");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_EQ(*exists, 1);
  EXPECT_EQ(FindKeyInElm(match_then_damage, "a", "Joint").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(GetElm(match_then_damage, "a", "a", "Join").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace xorator::xadt
