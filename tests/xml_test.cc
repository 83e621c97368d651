#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xml {
namespace {

TEST(XmlParserTest, SimpleDocument) {
  auto doc = ParseDocument("<a><b>hi</b><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Node& root = *doc->root;
  EXPECT_EQ(root.name(), "a");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0]->name(), "b");
  EXPECT_EQ(root.children()[0]->TextContent(), "hi");
  EXPECT_EQ(root.children()[1]->name(), "c");
  EXPECT_TRUE(root.children()[1]->children().empty());
}

TEST(XmlParserTest, Attributes) {
  auto doc = ParseDocument(R"(<a x="1" y='two &amp; three'/>)");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->attributes().size(), 2u);
  EXPECT_EQ(*doc->root->FindAttribute("x"), "1");
  EXPECT_EQ(*doc->root->FindAttribute("y"), "two & three");
  EXPECT_EQ(doc->root->FindAttribute("z"), nullptr);
}

TEST(XmlParserTest, EntitiesAndCharRefs) {
  auto doc = ParseDocument("<a>&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->TextContent(), "<tag> & \"q\" AB");
}

TEST(XmlParserTest, Cdata) {
  auto doc = ParseDocument("<a><![CDATA[<not><parsed> & raw]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->TextContent(), "<not><parsed> & raw");
}

TEST(XmlParserTest, CommentsAndPisIgnored) {
  auto doc = ParseDocument(
      "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/><?pi data?></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->children().size(), 1u);
}

TEST(XmlParserTest, DoctypeInternalSubsetCaptured) {
  auto doc = ParseDocument(
      "<!DOCTYPE PLAY [<!ELEMENT PLAY (#PCDATA)>]><PLAY>x</PLAY>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->doctype_name, "PLAY");
  EXPECT_NE(doc->internal_subset.find("<!ELEMENT PLAY"), std::string::npos);
}

TEST(XmlParserTest, WhitespaceStrippedByDefault) {
  auto doc = ParseDocument("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->children().size(), 1u);
  ParseOptions keep;
  keep.strip_whitespace_text = false;
  auto doc2 = ParseDocument("<a>\n  <b>x</b>\n</a>", keep);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->root->children().size(), 3u);
}

TEST(XmlParserTest, MismatchedTagFails) {
  EXPECT_FALSE(ParseDocument("<a><b></a></b>").ok());
}

TEST(XmlParserTest, UnterminatedFails) {
  EXPECT_FALSE(ParseDocument("<a><b>").ok());
  EXPECT_FALSE(ParseDocument("<a attr=>x</a>").ok());
  EXPECT_FALSE(ParseDocument("<a>&unknown;</a>").ok());
}

TEST(XmlParserTest, ContentAfterRootFails) {
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());
}

TEST(XmlParserTest, CdataBeforeRootFails) {
  EXPECT_FALSE(ParseDocument("<![CDATA[]]><a/>").ok());
  EXPECT_FALSE(ParseDocument("<![CDATA[x]]><a/>").ok());
}

TEST(XmlParserTest, ErrorsIncludePosition) {
  auto r = ParseDocument("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(XmlParserTest, FragmentParsing) {
  auto frag = ParseFragment("<s>a</s><s>b</s>text");
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_EQ((*frag)->name(), "#fragment");
  EXPECT_EQ((*frag)->children().size(), 3u);
  EXPECT_EQ((*frag)->TextContent(), "abtext");
}

TEST(XmlSerializerTest, EscapesSpecials) {
  auto elem = Node::Element("a");
  elem->AddAttribute("k", "a\"b<c");
  elem->AddChild(Node::Text("1 < 2 & 3 > 2"));
  std::string out = Serialize(*elem);
  EXPECT_EQ(out, "<a k=\"a&quot;b&lt;c\">1 &lt; 2 &amp; 3 &gt; 2</a>");
}

TEST(XmlSerializerTest, EmptyElementUsesSelfClosing) {
  auto elem = Node::Element("empty");
  EXPECT_EQ(Serialize(*elem), "<empty/>");
}

TEST(XmlSerializerTest, RoundTrip) {
  const char* kInput =
      "<PLAY><TITLE>Romeo &amp; Juliet</TITLE>"
      "<ACT n=\"1\"><SPEECH><SPEAKER>ROMEO</SPEAKER>"
      "<LINE>But soft <STAGEDIR>Rising</STAGEDIR> what light</LINE>"
      "</SPEECH></ACT></PLAY>";
  auto doc = ParseDocument(kInput);
  ASSERT_TRUE(doc.ok());
  std::string out = Serialize(*doc->root);
  EXPECT_EQ(out, kInput);
  // Parsing the serialization again yields the same serialization.
  auto doc2 = ParseDocument(out);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(Serialize(*doc2->root), out);
}

TEST(XmlSerializerTest, IndentedOutput) {
  auto doc = ParseDocument("<a><b>x</b><c/></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.indent = 2;
  std::string out = Serialize(*doc->root, opts);
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
}

TEST(DomTest, CloneIsDeepAndIndependent) {
  auto doc = ParseDocument("<a x=\"1\"><b>t</b></a>");
  ASSERT_TRUE(doc.ok());
  auto copy = doc->root->Clone();
  EXPECT_EQ(Serialize(*copy), Serialize(*doc->root));
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_NE(copy.get(), doc->root.get());
}

TEST(DomTest, ChildElementHelpers) {
  auto doc = ParseDocument("<a><b>1</b><c/><b>2</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->ChildElements().size(), 3u);
  EXPECT_EQ(doc->root->ChildElements("b").size(), 2u);
  ASSERT_NE(doc->root->FirstChildElement("c"), nullptr);
  EXPECT_EQ(doc->root->FirstChildElement("zz"), nullptr);
}

TEST(DomTest, ParentLinks) {
  auto doc = ParseDocument("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  const Node* b = doc->root->FirstChildElement("b");
  const Node* c = b->FirstChildElement("c");
  EXPECT_EQ(c->parent(), b);
  EXPECT_EQ(b->parent(), doc->root.get());
}

TEST(DecodeEntitiesTest, Basics) {
  EXPECT_EQ(*DecodeEntities("a&amp;b"), "a&b");
  EXPECT_EQ(*DecodeEntities("&#x20AC;"), "\xE2\x82\xAC");  // euro sign
  EXPECT_FALSE(DecodeEntities("&bogus;").ok());
  EXPECT_FALSE(DecodeEntities("&#xZZ;").ok());
  EXPECT_FALSE(DecodeEntities("&amp").ok());
}

// Hostile-input hardening (ParserLimits): every bomb below must come back
// as a clean kParseError — never a crash, stack overflow, or runaway
// allocation.

TEST(ParserLimitsTest, DeepNestingBombRejected) {
  // 100k open tags; without the depth bound this recurses once per level
  // and smashes the stack long before the input runs out.
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "<a>";
  auto doc = ParseDocument(bomb);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("nesting deeper"), std::string::npos);
}

TEST(ParserLimitsTest, NestingAtTheLimitStillParses) {
  ParseOptions options;
  options.limits.max_depth = 64;
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 64; ++i) deep += "</a>";
  EXPECT_TRUE(ParseDocument(deep, options).ok());
  EXPECT_FALSE(ParseDocument("<r>" + deep + "</r>", options).ok());
}

TEST(ParserLimitsTest, OversizedAttributeRejected) {
  ParseOptions options;
  options.limits.max_token_bytes = 1024;
  std::string doc = "<a v=\"" + std::string(2048, 'x') + "\"/>";
  auto parsed = ParseDocument(doc, options);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(ParserLimitsTest, OversizedNameAndTextRejected) {
  ParseOptions options;
  options.limits.max_token_bytes = 256;
  std::string long_name = "<" + std::string(512, 'n') + "/>";
  EXPECT_FALSE(ParseDocument(long_name, options).ok());
  std::string long_text = "<a>" + std::string(512, 't') + "</a>";
  EXPECT_FALSE(ParseDocument(long_text, options).ok());
  std::string long_cdata =
      "<a><![CDATA[" + std::string(512, 'c') + "]]></a>";
  EXPECT_FALSE(ParseDocument(long_cdata, options).ok());
}

TEST(ParserLimitsTest, OversizedInputRejectedUpFront) {
  ParseOptions options;
  options.limits.max_input_bytes = 100;
  std::string doc = "<a>" + std::string(200, 'x') + "</a>";
  auto parsed = ParseDocument(doc, options);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("exceeds the parser limit"),
            std::string::npos);
  EXPECT_FALSE(ParseFragment(doc, options).ok());
}

TEST(ParserLimitsTest, ZeroDisablesALimit) {
  ParseOptions options;
  options.limits.max_depth = 0;
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 500; ++i) deep += "</a>";
  EXPECT_TRUE(ParseDocument(deep, options).ok());
}

TEST(ParserLimitsTest, FragmentsHonorTheDepthBound) {
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "<a>";
  auto frag = ParseFragment(bomb);
  ASSERT_FALSE(frag.ok());
  EXPECT_EQ(frag.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace xorator::xml
