#include <gtest/gtest.h>

#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xadt {
namespace {

using EventKind = xml::TokenKind;

std::string EncodeXml(const std::string& xml_text, bool compressed) {
  auto frag = xml::ParseFragment(xml_text);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  return Encode(roots, compressed);
}

struct FlatEvent {
  EventKind kind;
  std::string name_or_text;
};

// Flattens a Scan into events; an end event is named by the visitor's own
// stack of open names, since the walk reports only where an element ends.
struct FlatVisitor {
  bool OnStart(size_t, std::string_view name, size_t, size_t depth) {
    EXPECT_EQ(depth, open.size());
    open.emplace_back(name);
    events.push_back({EventKind::kStart, std::string(name)});
    return true;
  }
  bool OnText(std::string_view text) {
    events.push_back({EventKind::kText, std::string(text)});
    return true;
  }
  bool OnEnd(size_t, size_t depth) {
    EXPECT_EQ(depth + 1, open.size());
    events.push_back({EventKind::kEnd, open.back()});
    open.pop_back();
    return true;
  }
  std::vector<std::string> open;
  std::vector<FlatEvent> events;
};

Result<std::vector<FlatEvent>> Drain(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner,
                      FragmentScanner::Create(bytes));
  FlatVisitor visitor;
  RETURN_IF_ERROR(scanner.Scan(visitor));
  return std::move(visitor.events);
}

class ScannerFormatTest : public ::testing::TestWithParam<bool> {};

TEST_P(ScannerFormatTest, EventSequence) {
  std::string bytes =
      EncodeXml("<a><b>hi</b><c/></a><d>tail</d>", GetParam());
  auto events = Drain(bytes);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  std::vector<FlatEvent> expected = {
      {EventKind::kStart, "a"}, {EventKind::kStart, "b"},
      {EventKind::kText, "hi"}, {EventKind::kEnd, "b"},
      {EventKind::kStart, "c"}, {EventKind::kEnd, "c"},
      {EventKind::kEnd, "a"},   {EventKind::kStart, "d"},
      {EventKind::kText, "tail"}, {EventKind::kEnd, "d"}};
  ASSERT_EQ(events->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*events)[i].kind, expected[i].kind) << i;
    EXPECT_EQ((*events)[i].name_or_text, expected[i].name_or_text) << i;
  }
}

TEST_P(ScannerFormatTest, OffsetsSliceToValidFragments) {
  std::string bytes = EncodeXml(
      "<x><y a=\"1\">one</y></x><x>two</x>", GetParam());
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok());
  std::string header(scanner->header());
  // Capture the byte range of each top-level element and re-decode it.
  struct RangeVisitor {
    bool OnStart(size_t, std::string_view, size_t offset, size_t depth) {
      if (depth == 0) open_offset = offset;
      return true;
    }
    bool OnText(std::string_view) { return true; }
    bool OnEnd(size_t end_offset, size_t depth) {
      if (depth == 0) ranges.emplace_back(open_offset, end_offset);
      return true;
    }
    size_t open_offset = 0;
    std::vector<std::pair<size_t, size_t>> ranges;
  } visitor;
  Status scanned = scanner->Scan(visitor);
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  const std::vector<std::pair<size_t, size_t>>& ranges = visitor.ranges;
  ASSERT_EQ(ranges.size(), 2u);
  std::string first = header.empty() ? "R" : header;
  first.append(bytes.substr(ranges[0].first,
                            ranges[0].second - ranges[0].first));
  auto xml_text = ToXmlString(first);
  ASSERT_TRUE(xml_text.ok()) << xml_text.status().ToString();
  EXPECT_EQ(*xml_text, "<x><y a=\"1\">one</y></x>");
  std::string second = header.empty() ? "R" : header;
  second.append(bytes.substr(ranges[1].first,
                             ranges[1].second - ranges[1].first));
  EXPECT_EQ(*ToXmlString(second), "<x>two</x>");
}

TEST_P(ScannerFormatTest, AgreesWithDomOnRandomDocs) {
  auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("PLAY");
    ASSERT_TRUE(doc.ok());
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string bytes = Encode(roots, GetParam());
    // Text content via the scanner equals DOM text content.
    auto text = TextContent(bytes);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, (*doc)->TextContent()) << "seed " << seed;
    // Event stream is balanced and name-consistent.
    auto events = Drain(bytes);
    ASSERT_TRUE(events.ok()) << "seed " << seed;
    int depth = 0;
    for (const FlatEvent& e : *events) {
      if (e.kind == EventKind::kStart) ++depth;
      if (e.kind == EventKind::kEnd) --depth;
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, ScannerFormatTest,
                         ::testing::Values(false, true));

TEST(ScannerRawTest, HandlesEntitiesInText) {
  auto events = Drain("R<a>x &amp; y</a>");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ((*events)[1].name_or_text, "x & y");
}

TEST(ScannerRawTest, HandlesCommentsAndCdata) {
  auto events = Drain("R<a><!-- skip --><![CDATA[<raw>&]]></a>");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[1].kind, EventKind::kText);
  EXPECT_EQ((*events)[1].name_or_text, "<raw>&");
}

TEST(ScannerRawTest, AttributesWithAngleBrackets) {
  auto events = Drain("R<a k=\"x>y\">t</a>");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].name_or_text, "a");
}

TEST(ScannerRawTest, SelfClosingProducesStartEnd) {
  auto events = Drain("R<a/><b x='1'/>");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].kind, EventKind::kStart);
  EXPECT_EQ((*events)[1].kind, EventKind::kEnd);
  EXPECT_EQ((*events)[2].name_or_text, "b");
}

TEST(ScannerRawTest, MalformedInputsFailCleanly) {
  for (const char* bad :
       {"R<a>", "R</a>", "R<a></b>", "R<a", "R<a attr='x>y</a>",
        "R<!-- unterminated", "R<![CDATA[ unterminated"}) {
    auto events = Drain(bad);
    EXPECT_FALSE(events.ok()) << bad;
  }
}

TEST(ScannerCompressedTest, MalformedInputsFailCleanly) {
  std::string good = EncodeXml("<a><b>t</b></a>", true);
  // Truncations at every prefix either fail or end cleanly, never crash.
  for (size_t len = 0; len < good.size(); ++len) {
    auto events = Drain(good.substr(0, len));
    XO_DISCARD_STATUS(events, "a truncated prefix may fail or end cleanly; "
                              "the test only asserts no crash");
  }
  // Corrupted opcode.
  std::string bad = good;
  bad[bad.size() - 1] = '\x7F';
  EXPECT_FALSE(Drain(bad).ok());
}

TEST(ScannerTest, EmptyValue) {
  auto events = Drain("");
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
  auto raw_events = Drain("R");
  ASSERT_TRUE(raw_events.ok());
  EXPECT_TRUE(raw_events->empty());
}

TEST(ScannerTest, UnknownMarkerRejected) {
  EXPECT_FALSE(FragmentScanner::Create("Zxx").ok());
}

TEST(ScannerTest, HeaderForCompressed) {
  std::string bytes = EncodeXml("<tag>t</tag>", true);
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok());
  EXPECT_TRUE(scanner->compressed());
  EXPECT_GT(scanner->header().size(), 1u);
  EXPECT_EQ(scanner->header()[0], 'C');
}

}  // namespace
}  // namespace xorator::xadt
