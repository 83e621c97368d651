#include <gtest/gtest.h>

#include "datagen/dtds.h"
#include "datagen/generators.h"
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

TEST(XadtCompressionTest, AdvisorFollowsTwentyPercentRule) {
  auto frag = xml::ParseFragment(
      "<LINE>a</LINE><LINE>b</LINE><LINE>c</LINE><LINE>d</LINE>"
      "<LINE>e</LINE><LINE>f</LINE><LINE>g</LINE><LINE>h</LINE>");
  ASSERT_TRUE(frag.ok());
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  CompressionAdvisor advisor(0.2);
  advisor.AddSample(roots);
  EXPECT_GT(advisor.raw_bytes(), 0u);
  // Many repeated tags: compression wins.
  EXPECT_TRUE(advisor.UseCompression());

  CompressionAdvisor strict(0.99);
  strict.AddSample(roots);
  EXPECT_FALSE(strict.UseCompression());

  CompressionAdvisor empty(0.2);
  EXPECT_FALSE(empty.UseCompression());
}

TEST(XadtErrorsTest, BadInputsRejected) {
  EXPECT_FALSE(Decode("Zgarbage").ok());
  EXPECT_FALSE(GetElm("Rx", "", "a", "b").ok());
  EXPECT_FALSE(GetElmIndex("R<a/>", "a", "", 1, 1).ok());
  // Truncated compressed payloads fail cleanly.
  std::string bytes = EncodeXml("<a><b>text</b></a>", true);
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(Decode(truncated).ok());
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

}  // namespace
}  // namespace xorator::xadt
