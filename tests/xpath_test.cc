#include <gtest/gtest.h>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include <functional>

#include "dtdgraph/simplify.h"
#include "xml/dtd.h"
#include "xpath/xpath.h"

namespace xorator::xpath {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;

// ------------------------------------------------------------------ parser

TEST(PathParserTest, StepsAndAxes) {
  auto path = ParsePath("/PLAY/ACT//LINE");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->steps.size(), 3u);
  EXPECT_FALSE(path->steps[0].descendant);
  EXPECT_EQ(path->steps[1].name, "ACT");
  EXPECT_TRUE(path->steps[2].descendant);
  EXPECT_EQ(path->ToString(), "/PLAY/ACT//LINE");
}

TEST(PathParserTest, Predicates) {
  auto path = ParsePath(
      "/SPEECH[contains(SPEAKER,'ROMEO')][position() = 2]"
      "/LINE[contains(., 'love')]");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->steps.size(), 2u);
  ASSERT_EQ(path->steps[0].predicates.size(), 2u);
  EXPECT_EQ(path->steps[0].predicates[0].kind,
            Predicate::Kind::kContainsChild);
  EXPECT_EQ(path->steps[0].predicates[0].child, "SPEAKER");
  EXPECT_EQ(path->steps[0].predicates[0].key, "ROMEO");
  EXPECT_EQ(path->steps[0].predicates[1].kind, Predicate::Kind::kPosition);
  EXPECT_EQ(path->steps[0].predicates[1].position, 2);
  EXPECT_EQ(path->steps[1].predicates[0].kind,
            Predicate::Kind::kContainsSelf);
}

TEST(PathParserTest, Errors) {
  EXPECT_FALSE(ParsePath("").ok());
  EXPECT_FALSE(ParsePath("PLAY").ok());
  EXPECT_FALSE(ParsePath("/PLAY[").ok());
  EXPECT_FALSE(ParsePath("/PLAY[foo(.)]").ok());
  EXPECT_FALSE(ParsePath("/PLAY[contains(., 'x'").ok());
  EXPECT_FALSE(ParsePath("/PLAY[position() = ]").ok());
  EXPECT_FALSE(ParsePath("/PLAY[contains(., unquoted)]").ok());
}

TEST(PathParserTest, PositionOutOfRangeIsAParseError) {
  auto path = ParsePath("/PLAY/ACT[position() = 99999999999]");
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kParseError);
  auto max = ParsePath("/PLAY/ACT[position() = 2147483647]");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->steps[1].predicates[0].position, 2147483647);
}

// -------------------------------------------------------------- SQL shapes

class TranslatorSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
    ASSERT_TRUE(dtd.ok());
    auto simplified = dtdgraph::Simplify(*dtd);
    ASSERT_TRUE(simplified.ok());
    dtd_ = std::make_unique<dtdgraph::SimplifiedDtd>(std::move(*simplified));
    auto hybrid = benchutil::MapDtd(datagen::kShakespeareDtd,
                                    Mapping::kHybrid);
    auto xorator = benchutil::MapDtd(datagen::kShakespeareDtd,
                                     Mapping::kXorator);
    ASSERT_TRUE(hybrid.ok());
    ASSERT_TRUE(xorator.ok());
    hybrid_ = std::make_unique<mapping::MappedSchema>(std::move(*hybrid));
    xorator_ = std::make_unique<mapping::MappedSchema>(std::move(*xorator));
  }

  std::string Sql(const mapping::MappedSchema& schema, const char* path_text,
                  OutputMode mode = OutputMode::kCount) {
    auto path = ParsePath(path_text);
    EXPECT_TRUE(path.ok()) << path.status().ToString();
    Translator translator(&schema, dtd_.get());
    auto sql = translator.ToSql(*path, mode);
    EXPECT_TRUE(sql.ok()) << path_text << ": " << sql.status().ToString();
    return sql.ok() ? *sql : "";
  }

  std::unique_ptr<dtdgraph::SimplifiedDtd> dtd_;
  std::unique_ptr<mapping::MappedSchema> hybrid_;
  std::unique_ptr<mapping::MappedSchema> xorator_;
};

TEST_F(TranslatorSqlTest, RelationChainBecomesJoins) {
  std::string sql = Sql(*hybrid_, "/PLAY/ACT/SCENE");
  EXPECT_NE(sql.find("FROM play play_1, act act_2, scene scene_3"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("act_2.act_parentID = play_1.playID"),
            std::string::npos) << sql;
  EXPECT_NE(sql.find("scene_3.scene_parentCODE = 'ACT'"), std::string::npos)
      << sql;
}

TEST_F(TranslatorSqlTest, XadtStepsBecomeGetElm) {
  std::string sql =
      Sql(*xorator_, "/PLAY/ACT/SCENE/SPEECH/LINE[contains(., 'love')]");
  EXPECT_NE(sql.find("getElm(speech_4.speech_line, 'LINE', 'LINE', 'love')"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("table(unnest("), std::string::npos) << sql;
}

TEST_F(TranslatorSqlTest, PositionPredicate) {
  std::string hybrid_sql =
      Sql(*hybrid_, "/PLAY/ACT/SCENE/SPEECH/LINE[position() = 2]");
  EXPECT_NE(hybrid_sql.find("line_5.line_childOrder = 2"), std::string::npos)
      << hybrid_sql;
  std::string xorator_sql =
      Sql(*xorator_, "/PLAY/ACT/SCENE/SPEECH/LINE[position() = 2]");
  EXPECT_NE(xorator_sql.find("getElmIndex(speech_4.speech_line, '', 'LINE', "
                             "2, 2)"),
            std::string::npos)
      << xorator_sql;
}

TEST_F(TranslatorSqlTest, ChildPredicateDialects) {
  // SPEAKER is a relation under Hybrid (join) and an XADT column under
  // XORator (findKeyInElm).
  std::string hybrid_sql =
      Sql(*hybrid_, "/PLAY/ACT/SCENE/SPEECH[contains(SPEAKER, 'ROMEO')]");
  EXPECT_NE(hybrid_sql.find("speaker_value LIKE '%ROMEO%'"),
            std::string::npos)
      << hybrid_sql;
  std::string xorator_sql =
      Sql(*xorator_, "/PLAY/ACT/SCENE/SPEECH[contains(SPEAKER, 'ROMEO')]");
  EXPECT_NE(xorator_sql.find(
                "findKeyInElm(speech_4.speech_speaker, 'SPEAKER', 'ROMEO')"),
            std::string::npos)
      << xorator_sql;
}

TEST_F(TranslatorSqlTest, InlinedPredicate) {
  std::string sql = Sql(*hybrid_, "/PLAY[contains(TITLE, 'Romeo')]/ACT");
  EXPECT_NE(sql.find("play_1.play_title LIKE '%Romeo%'"), std::string::npos)
      << sql;
}

TEST_F(TranslatorSqlTest, InlinedTerminalUsesIsNotNull) {
  std::string sql = Sql(*hybrid_, "/PLAY/ACT/TITLE");
  EXPECT_NE(sql.find("act_2.act_title IS NOT NULL"), std::string::npos)
      << sql;
  std::string text_sql =
      Sql(*hybrid_, "/PLAY/ACT/TITLE", OutputMode::kText);
  EXPECT_NE(text_sql.find("act_2.act_title AS text"), std::string::npos)
      << text_sql;
}

TEST_F(TranslatorSqlTest, UnsupportedPathsReportErrors) {
  Translator hybrid(hybrid_.get(), dtd_.get());
  auto bad_root = ParsePath("/NOTANELEMENT/ACT");
  EXPECT_FALSE(hybrid.ToSql(*bad_root, OutputMode::kCount).ok());
  auto bad_child = ParsePath("/PLAY/LINE");
  EXPECT_FALSE(hybrid.ToSql(*bad_child, OutputMode::kCount).ok());
}

// --------------------------------------------------------- end-to-end runs

/// The number of elements `path_text` selects, by running the SQL the
/// translator emits for `db`'s mapping; -1 if it does not translate or run.
int64_t PathCount(const ExperimentDb& db, const dtdgraph::SimplifiedDtd& dtd,
                  const char* path_text) {
  auto path = ParsePath(path_text);
  EXPECT_TRUE(path.ok());
  Translator translator(&db.schema, &dtd);
  auto sql = translator.ToSql(*path, OutputMode::kCount);
  EXPECT_TRUE(sql.ok()) << path_text << ": " << sql.status().ToString();
  if (!sql.ok()) return -1;
  auto r = db.db->Query(*sql);
  EXPECT_TRUE(r.ok()) << *sql << "\n -> " << r.status().ToString();
  if (!r.ok()) return -1;
  return r->rows[0][0].AsInt();
}

/// The DOM's answer to a path of child steps (`steps[0]` names the
/// document element): the elements at the last step for which `keep` holds.
int64_t DomCount(const std::vector<std::unique_ptr<xml::Node>>& docs,
                 const std::vector<std::string>& steps,
                 const std::function<bool(const xml::Node&)>& keep) {
  std::function<int64_t(const xml::Node&, size_t)> walk =
      [&](const xml::Node& n, size_t depth) -> int64_t {
    if (!n.is_element() || n.name() != steps[depth]) return 0;
    if (depth + 1 == steps.size()) return keep(n) ? 1 : 0;
    int64_t count = 0;
    for (const auto& c : n.children()) count += walk(*c, depth + 1);
    return count;
  };
  int64_t total = 0;
  for (const auto& doc : docs) total += walk(*doc, 0);
  return total;
}

bool Any(const xml::Node&) { return true; }

std::function<bool(const xml::Node&)> TextHas(std::string key) {
  return [key](const xml::Node& n) {
    return n.TextContent().find(key) != std::string::npos;
  };
}

std::function<bool(const xml::Node&)> ChildTextHas(std::string child,
                                                   std::string key) {
  return [child, key](const xml::Node& n) {
    for (const auto& c : n.children()) {
      if (c->is_element() && c->name() == child &&
          c->TextContent().find(key) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
}

/// A path, the DOM steps it walks and the test on the last step's elements.
struct DomCase {
  const char* path;
  std::vector<std::string> steps;
  std::function<bool(const xml::Node&)> keep;
};

class XPathEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ShakespeareOptions opts;
    opts.plays = 3;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::ShakespeareGenerator(opts).GenerateCorpus());
    std::vector<const xml::Node*> docs;
    for (const auto& d : *corpus_) docs.push_back(d.get());
    ExperimentOptions hybrid_opts;
    hybrid_opts.mapping = Mapping::kHybrid;
    auto hybrid = BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                    hybrid_opts);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    hybrid_ = new ExperimentDb(std::move(*hybrid));
    ExperimentOptions xorator_opts;
    xorator_opts.mapping = Mapping::kXorator;
    auto xorator = BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                     xorator_opts);
    ASSERT_TRUE(xorator.ok()) << xorator.status().ToString();
    xorator_ = new ExperimentDb(std::move(*xorator));
    auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
    ASSERT_TRUE(dtd.ok());
    auto simplified = dtdgraph::Simplify(*dtd);
    ASSERT_TRUE(simplified.ok());
    dtd_ = new dtdgraph::SimplifiedDtd(std::move(*simplified));
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete hybrid_;
    delete xorator_;
    delete dtd_;
    corpus_ = nullptr;
    hybrid_ = nullptr;
    xorator_ = nullptr;
    dtd_ = nullptr;
  }

  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static ExperimentDb* hybrid_;
  static ExperimentDb* xorator_;
  static dtdgraph::SimplifiedDtd* dtd_;
};

std::vector<std::unique_ptr<xml::Node>>* XPathEndToEndTest::corpus_ = nullptr;
ExperimentDb* XPathEndToEndTest::hybrid_ = nullptr;
ExperimentDb* XPathEndToEndTest::xorator_ = nullptr;
dtdgraph::SimplifiedDtd* XPathEndToEndTest::dtd_ = nullptr;

TEST_F(XPathEndToEndTest, SamePathSameCountOnBothMappings) {
  // These paths avoid relation-child predicate joins, so both dialects must
  // count identically.
  const char* kPaths[] = {
      "/PLAY",
      "/PLAY/ACT",
      "/PLAY/ACT/SCENE",
      "/PLAY/ACT/SCENE/SPEECH",
      "/PLAY/ACT/SCENE/SPEECH/LINE[contains(., 'love')]",
      "/PLAY/ACT/SCENE/SPEECH/LINE[position() = 2]",
      "/PLAY[contains(TITLE, 'Romeo')]/ACT",
  };
  for (const char* path : kPaths) {
    int64_t h = PathCount(*hybrid_, *dtd_, path);
    int64_t x = PathCount(*xorator_, *dtd_, path);
    EXPECT_GE(h, 0) << path;
    EXPECT_EQ(h, x) << path;
  }
}

TEST_F(XPathEndToEndTest, CountsMatchDomGroundTruth) {
  // Ground truth computed on the DOM corpus directly.
  int64_t love_lines = 0;
  std::function<void(const xml::Node&)> walk = [&](const xml::Node& n) {
    if (n.name() == "LINE" &&
        n.TextContent().find("love") != std::string::npos) {
      ++love_lines;
    }
    for (const auto& c : n.children()) {
      if (c->is_element()) walk(*c);
    }
  };
  for (const auto& doc : *corpus_) walk(*doc);
  // The path restricts lines to speeches inside scenes inside acts; the
  // corpus also puts speeches in prologues/epilogues/inducts, so the path
  // count is at most the DOM count — and the XADT self-match uses the full
  // subtree text, as TextContent does.
  int64_t path_count = PathCount(
      *xorator_, *dtd_, "/PLAY/ACT/SCENE/SPEECH/LINE[contains(., 'love')]");
  EXPECT_GT(path_count, 0);
  EXPECT_LE(path_count, love_lines);
}

TEST_F(XPathEndToEndTest, PathsEndingInInlinedContentMatchTheDom) {
  // TITLE is an inlined column under both mappings; PERSONAE is a relation
  // under Hybrid and an XADT fragment under XORator.
  const DomCase kCases[] = {
      {"/PLAY/TITLE", {"PLAY", "TITLE"}, Any},
      {"/PLAY/TITLE[contains(., 'Romeo')]", {"PLAY", "TITLE"},
       TextHas("Romeo")},
      {"/PLAY/ACT/SCENE/TITLE[contains(., 'SCENE')]",
       {"PLAY", "ACT", "SCENE", "TITLE"}, TextHas("SCENE")},
      {"/PLAY/PERSONAE/TITLE", {"PLAY", "PERSONAE", "TITLE"}, Any},
      {"/PLAY/PERSONAE[contains(TITLE, 'Personae')]", {"PLAY", "PERSONAE"},
       ChildTextHas("TITLE", "Personae")},
  };
  for (const DomCase& c : kCases) {
    const int64_t dom = DomCount(*corpus_, c.steps, c.keep);
    EXPECT_GT(dom, 0) << c.path;
    EXPECT_EQ(PathCount(*hybrid_, *dtd_, c.path), dom) << c.path;
    EXPECT_EQ(PathCount(*xorator_, *dtd_, c.path), dom) << c.path;
  }
  // A single-occurrence inlined element has no position to select.
  auto path = ParsePath("/PLAY/TITLE[position() = 1]");
  ASSERT_TRUE(path.ok());
  for (const ExperimentDb* db : {hybrid_, xorator_}) {
    auto sql = Translator(&db->schema, dtd_).ToSql(*path, OutputMode::kCount);
    EXPECT_EQ(sql.status().code(), StatusCode::kNotImplemented);
  }
}

TEST(XPathNestedInlineTest, PathsThroughNestedInlinedContentMatchTheDom) {
  // Hybrid inlines the SIGMOD DTD's Toindex/index and fullText/size into
  // atuple two levels deep; XORator keeps them inside XADT fragments.
  datagen::SigmodOptions opts;
  opts.documents = 20;
  auto corpus = datagen::SigmodGenerator(opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  auto dtd = xml::ParseDtd(datagen::kSigmodDtd);
  ASSERT_TRUE(dtd.ok());
  auto simplified = dtdgraph::Simplify(*dtd);
  ASSERT_TRUE(simplified.ok());
  const std::vector<std::string> kTuple = {"PP", "sList", "sListTuple",
                                           "articles", "aTuple"};
  auto below = [&](std::vector<std::string> tail) {
    std::vector<std::string> steps = kTuple;
    steps.insert(steps.end(), tail.begin(), tail.end());
    return steps;
  };
  // Toindex holds at most one index, so its child predicate selects the
  // same index elements as a test on their own text.
  const DomCase kCases[] = {
      {"/PP/sList/sListTuple/articles/aTuple/Toindex/index",
       below({"Toindex", "index"}), Any},
      {"/PP/sList/sListTuple/articles/aTuple/fullText/size[contains(., '1')]",
       below({"fullText", "size"}), TextHas("1")},
      {"/PP/sList/sListTuple/articles/aTuple/Toindex[contains(index, 'term')]"
       "/index",
       below({"Toindex", "index"}), TextHas("term")},
  };
  for (Mapping mapping : {Mapping::kHybrid, Mapping::kXorator}) {
    ExperimentOptions options;
    options.mapping = mapping;
    auto db = BuildExperimentDb(datagen::kSigmodDtd, docs, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const DomCase& c : kCases) {
      const int64_t dom = DomCount(corpus, c.steps, c.keep);
      EXPECT_GT(dom, 0) << c.path;
      EXPECT_EQ(PathCount(*db, *simplified, c.path), dom) << c.path;
    }
  }
}

TEST_F(XPathEndToEndTest, TextModeReturnsLineText) {
  auto path = ParsePath("/PLAY/ACT/SCENE/SPEECH/LINE[contains(., 'love')]");
  Translator translator(&xorator_->schema, dtd_);
  auto sql = translator.ToSql(*path, OutputMode::kText);
  ASSERT_TRUE(sql.ok());
  auto r = xorator_->db->Query(*sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->rows.size(), 0u);
  for (const auto& row : r->rows) {
    EXPECT_NE(row[0].AsString().find("love"), std::string::npos);
  }
}

}  // namespace
}  // namespace xorator::xpath
