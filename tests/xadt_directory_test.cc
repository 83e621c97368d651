#include <gtest/gtest.h>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xorator::xadt {
namespace {

std::vector<const xml::Node*> Roots(const xml::Node& frag) {
  std::vector<const xml::Node*> out;
  for (const auto& c : frag.children()) out.push_back(c.get());
  return out;
}

class DirectoryFormatTest : public ::testing::TestWithParam<bool> {
 protected:
  std::string EncodeDir(const std::string& xml_text) {
    auto frag = xml::ParseFragment(xml_text);
    EXPECT_TRUE(frag.ok());
    return EncodeWithDirectory(Roots(**frag), GetParam());
  }
  std::string EncodePlain(const std::string& xml_text) {
    auto frag = xml::ParseFragment(xml_text);
    EXPECT_TRUE(frag.ok());
    return Encode(Roots(**frag), GetParam());
  }
};

TEST_P(DirectoryFormatTest, MarkersAndDetection) {
  std::string bytes = EncodeDir("<a>1</a><b>2</b>");
  EXPECT_TRUE(HasDirectory(bytes));
  EXPECT_EQ(IsCompressed(bytes), GetParam());
  EXPECT_FALSE(HasDirectory(EncodePlain("<a>1</a>")));
}

TEST_P(DirectoryFormatTest, RoundTripsLikePlainEncoding) {
  const char* kXml =
      "<LINE>one <STAGEDIR>Rising</STAGEDIR> tail</LINE>"
      "<LINE>two</LINE><LINE a=\"x\">three</LINE>";
  std::string dir = EncodeDir(kXml);
  std::string plain = EncodePlain(kXml);
  EXPECT_EQ(*ToXmlString(dir), *ToXmlString(plain));
  EXPECT_EQ(*TextContent(dir), *TextContent(plain));
}

TEST_P(DirectoryFormatTest, ScannerExposesTopRanges) {
  std::string bytes = EncodeDir("<a>1</a><b>2</b><a>3</a>");
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  EXPECT_TRUE(scanner->has_directory());
  ASSERT_EQ(scanner->top_ranges().size(), 3u);
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[0].first), "a");
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[1].first), "b");
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[2].first), "a");
}

TEST_P(DirectoryFormatTest, AllMethodsAgreeWithPlainEncoding) {
  const char* kXml =
      "<LINE>my friend is here</LINE>"
      "<LINE>second <STAGEDIR>Rising</STAGEDIR></LINE>"
      "<LINE>third love line</LINE><OTHER>x</OTHER>";
  std::string dir = EncodeDir(kXml);
  std::string plain = EncodePlain(kXml);
  // getElm.
  EXPECT_EQ(*ToXmlString(*GetElm(dir, "LINE", "LINE", "friend")),
            *ToXmlString(*GetElm(plain, "LINE", "LINE", "friend")));
  EXPECT_EQ(*ToXmlString(*GetElm(dir, "LINE", "STAGEDIR", "")),
            *ToXmlString(*GetElm(plain, "LINE", "STAGEDIR", "")));
  // findKeyInElm.
  EXPECT_EQ(*FindKeyInElm(dir, "LINE", "love"),
            *FindKeyInElm(plain, "LINE", "love"));
  EXPECT_EQ(*FindKeyInElm(dir, "", "Rising"),
            *FindKeyInElm(plain, "", "Rising"));
  // getElmIndex: both the directory fast path and the parent-scoped scan.
  EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "", "LINE", 2, 3)),
            *ToXmlString(*GetElmIndex(plain, "", "LINE", 2, 3)));
  EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "LINE", "STAGEDIR", 1, 1)),
            *ToXmlString(*GetElmIndex(plain, "LINE", "STAGEDIR", 1, 1)));
  // unnest: empty tag (fast path) and named tag.
  auto dir_all = Unnest(dir, "");
  auto plain_all = Unnest(plain, "");
  ASSERT_EQ(dir_all->size(), plain_all->size());
  for (size_t i = 0; i < dir_all->size(); ++i) {
    EXPECT_EQ(*ToXmlString((*dir_all)[i]), *ToXmlString((*plain_all)[i]));
  }
  auto dir_lines = Unnest(dir, "LINE");
  auto plain_lines = Unnest(plain, "LINE");
  ASSERT_EQ(dir_lines->size(), plain_lines->size());
  for (size_t i = 0; i < dir_lines->size(); ++i) {
    EXPECT_EQ(*ToXmlString((*dir_lines)[i]),
              *ToXmlString((*plain_lines)[i]));
  }
}

TEST_P(DirectoryFormatTest, RandomDocsAgreeWithPlainEncoding) {
  auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 8; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("SPEECH");
    ASSERT_TRUE(doc.ok());
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string dir = EncodeWithDirectory(roots, GetParam());
    std::string plain = Encode(roots, GetParam());
    EXPECT_EQ(*ToXmlString(dir), *ToXmlString(plain)) << seed;
    EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "", "SPEECH", 1, 1)),
              *ToXmlString(*GetElmIndex(plain, "", "SPEECH", 1, 1)))
        << seed;
    EXPECT_EQ(*FindKeyInElm(dir, "SPEAKER", ""),
              *FindKeyInElm(plain, "SPEAKER", "")) << seed;
  }
}

TEST_P(DirectoryFormatTest, EmptyFragmentList) {
  std::string bytes = EncodeWithDirectory({}, GetParam());
  EXPECT_TRUE(HasDirectory(bytes));
  EXPECT_EQ(*ToXmlString(bytes), "");
  EXPECT_TRUE(Unnest(bytes, "")->empty());
}

TEST_P(DirectoryFormatTest, UnnestTextEqualsTextContentOfFragment) {
  // The empty tag takes the directory fast path when only fragments are
  // asked for, and the scan when text is: both must agree.
  std::string dir = EncodeDir(
      "<LINE>one &amp; <STAGEDIR>Rising</STAGEDIR> two</LINE>"
      "<LINE><LINE>nested</LINE> outer</LINE><SPEAKER>X</SPEAKER>");
  for (std::string_view tag : {"", "LINE", "STAGEDIR"}) {
    auto frags = Unnest(dir, tag);
    ASSERT_TRUE(frags.ok());
    std::vector<std::string> texts;
    std::vector<std::string> both_frags;
    ASSERT_TRUE(UnnestElements(dir, tag, true, true,
                               [&](std::string text, std::string frag) {
                                 texts.push_back(std::move(text));
                                 both_frags.push_back(std::move(frag));
                                 return Status::OK();
                               })
                    .ok());
    ASSERT_EQ(texts.size(), frags->size()) << tag;
    EXPECT_EQ(both_frags, *frags) << tag;
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(texts[i], *TextContent((*frags)[i])) << tag << " " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, DirectoryFormatTest,
                         ::testing::Values(false, true));

TEST(DirectoryFormatTest2, MalformedDirectoryRejected) {
  // A directory that claims ranges beyond the payload.
  std::string bad = "D";
  bad += '\x01';  // one entry
  bad += '\x00';  // start 0
  bad += '\x7F';  // length 127 (way past payload)
  bad += "R<a/>";
  EXPECT_FALSE(FragmentScanner::Create(bad).ok());
  // A directory with no payload at all.
  std::string empty_payload = "D";
  empty_payload += '\x00';
  EXPECT_FALSE(FragmentScanner::Create(empty_payload).ok());
}

TEST(DirectoryFormatTest2, CorruptDirectoryIsNotAnEmptyValue) {
  // A count with no entries behind it, and a zero count with no payload:
  // both are stored-metadata corruption, never an empty fragment.
  for (const std::string& bad :
       {std::string("D\x05", 2), std::string("D\x00", 2)}) {
    auto decoded = Decode(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    auto text = ToXmlString(bad);
    ASSERT_FALSE(text.ok());
    EXPECT_EQ(text.status().code(), StatusCode::kCorruption);
    EXPECT_FALSE(IsCompressed(bad));
  }
}

TEST(DirectoryFormatTest2, EscapedRunsLongerThanTheParserLimitStillScan) {
  // 600 KB of '<' in CDATA parses under the 1 MiB token limit but is stored
  // escaped (2.4 MB); text next to CDATA is stored as one run. Stored raw
  // values are not held to the parse-time size limits.
  std::string doc_text = "<doc><item><![CDATA[" + std::string(600000, '<') +
                         "]]></item><item>x<![CDATA[&]]></item></doc>";
  auto doc = xml::ParseDocument(doc_text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::string plain = Encode(Roots(*doc->root), /*compressed=*/false);
  std::string with_dir = EncodeWithDirectory(Roots(*doc->root), false);
  ASSERT_TRUE(HasDirectory(with_dir));
  for (const std::string& value : {plain, with_dir}) {
    auto elm = GetElm(value, "item", "", "");
    ASSERT_TRUE(elm.ok()) << elm.status().ToString();
    EXPECT_EQ(*elm, plain);
    auto index = GetElmIndex(value, "", "item", 1, 2);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(*index, plain);
    auto decoded = Decode(value);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ((*decoded)->children().size(), 2u);
    EXPECT_EQ((*decoded)->children()[0]->TextContent().size(), 600000u);
    EXPECT_EQ((*decoded)->children()[1]->TextContent(), "x&");
  }
}

TEST(DirectoryLoaderTest, LoadedDatabaseAnswersQueriesIdentically) {
  datagen::ShakespeareOptions gen_opts;
  gen_opts.plays = 2;
  auto corpus = datagen::ShakespeareGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());

  benchutil::ExperimentOptions plain_opts;
  plain_opts.mapping = benchutil::Mapping::kXorator;
  auto plain = benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                            plain_opts);
  ASSERT_TRUE(plain.ok());

  benchutil::ExperimentOptions dir_opts = plain_opts;
  dir_opts.load_options.use_directory = true;
  auto dir = benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                          dir_opts);
  ASSERT_TRUE(dir.ok());

  for (const char* sql : {
           "SELECT COUNT(*) AS n FROM speech, "
           "table(unnest(speech_line, 'LINE')) l",
           "SELECT COUNT(*) AS n FROM speech "
           "WHERE findKeyInElm(speech_line, 'LINE', 'love') = 1",
           "SELECT COUNT(*) AS n FROM speech, "
           "table(unnest(getElmIndex(speech_line, '', 'LINE', 2, 2), "
           "'LINE')) u",
       }) {
    auto a = plain->db->Query(sql);
    auto b = dir->db->Query(sql);
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    EXPECT_EQ(a->rows[0][0].AsInt(), b->rows[0][0].AsInt()) << sql;
  }
  // The directory representation costs a few bytes per value.
  EXPECT_GE(dir->db->DataBytes(), plain->db->DataBytes());
}

}  // namespace
}  // namespace xorator::xadt
