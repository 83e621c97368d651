#include <gtest/gtest.h>

#include <map>
#include <set>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xml/dtd.h"

namespace xorator {
namespace {

using benchutil::BuildExperimentDb;
using benchutil::ExperimentDb;
using benchutil::ExperimentOptions;
using benchutil::Mapping;
using ordb::QueryResult;
using ordb::Tuple;

std::vector<std::string> AdvisorQueries() {
  std::vector<std::string> out;
  for (const auto& q : benchutil::ShakespeareQueries()) {
    out.push_back(q.hybrid_sql);
    out.push_back(q.xorator_sql);
  }
  for (const auto& q : benchutil::SigmodQueries()) {
    out.push_back(q.hybrid_sql);
    out.push_back(q.xorator_sql);
  }
  return out;
}

QueryResult RunSql(ExperimentDb* db, const std::string& sql) {
  auto r = db->db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n -> " << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

int64_t Count(ExperimentDb* db, const std::string& sql) {
  QueryResult r = RunSql(db, sql);
  if (r.rows.size() != 1 || r.rows[0].empty()) return -1;
  return r.rows[0][0].AsInt();
}

std::multiset<std::string> Column0(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const Tuple& row : r.rows) out.insert(row[0].ToString());
  return out;
}

// ------------------------------------------------------------- Shakespeare

class ShakespeareIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ShakespeareOptions opts;
    opts.plays = 4;
    opts.acts_per_play = 3;
    opts.scenes_per_act = 3;
    opts.speeches_per_scene = 8;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::ShakespeareGenerator(opts).GenerateCorpus());
    std::vector<const xml::Node*> docs;
    for (const auto& d : *corpus_) docs.push_back(d.get());

    ExperimentOptions hybrid_opts;
    hybrid_opts.mapping = Mapping::kHybrid;
    hybrid_opts.advisor_queries = AdvisorQueries();
    auto hybrid = BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                    hybrid_opts);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    hybrid_ = new ExperimentDb(std::move(*hybrid));

    ExperimentOptions xorator_opts;
    xorator_opts.mapping = Mapping::kXorator;
    xorator_opts.advisor_queries = AdvisorQueries();
    auto xorator = BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                     xorator_opts);
    ASSERT_TRUE(xorator.ok()) << xorator.status().ToString();
    xorator_ = new ExperimentDb(std::move(*xorator));
  }

  static void TearDownTestSuite() {
    delete hybrid_;
    delete xorator_;
    delete corpus_;
    hybrid_ = nullptr;
    xorator_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static ExperimentDb* hybrid_;
  static ExperimentDb* xorator_;
};

std::vector<std::unique_ptr<xml::Node>>* ShakespeareIntegrationTest::corpus_ =
    nullptr;
ExperimentDb* ShakespeareIntegrationTest::hybrid_ = nullptr;
ExperimentDb* ShakespeareIntegrationTest::xorator_ = nullptr;

TEST_F(ShakespeareIntegrationTest, Table1Shape) {
  // Paper Table 1: 17 vs 7 tables, XORator database clearly smaller.
  EXPECT_EQ(hybrid_->schema.tables.size(), 17u);
  EXPECT_EQ(xorator_->schema.tables.size(), 7u);
  EXPECT_LT(xorator_->db->DataBytes(), hybrid_->db->DataBytes());
  EXPECT_LT(xorator_->db->IndexBytes(), hybrid_->db->IndexBytes());
  // Shakespeare data chooses the raw representation (paper Section 4.3).
  EXPECT_FALSE(xorator_->load.used_compression);
}

TEST_F(ShakespeareIntegrationTest, SharedStructuralCounts) {
  // Both databases agree on the number of structural elements.
  for (const char* table : {"play", "act", "scene", "speech", "induct",
                            "prologue", "epilogue"}) {
    std::string sql = std::string("SELECT COUNT(*) AS n FROM ") + table;
    EXPECT_EQ(Count(hybrid_, sql), Count(xorator_, sql)) << table;
  }
  EXPECT_EQ(Count(hybrid_, "SELECT COUNT(*) AS n FROM play"), 4);
}

TEST_F(ShakespeareIntegrationTest, AllPaperQueriesRunOnBothSchemas) {
  for (const auto& q : benchutil::ShakespeareQueries()) {
    auto h = hybrid_->db->Query(q.hybrid_sql);
    ASSERT_TRUE(h.ok()) << q.id << " hybrid: " << h.status().ToString();
    auto x = xorator_->db->Query(q.xorator_sql);
    ASSERT_TRUE(x.ok()) << q.id << " xorator: " << x.status().ToString();
  }
}

TEST_F(ShakespeareIntegrationTest, QS1FlatteningCountsAgree) {
  int64_t h = Count(hybrid_,
                    "SELECT COUNT(*) AS n FROM speech, speaker, line WHERE "
                    "speaker_parentID = speechID AND line_parentID = speechID");
  int64_t x = Count(xorator_,
                    "SELECT COUNT(*) AS n FROM speech, "
                    "table(unnest(speech_speaker, 'SPEAKER')) s, "
                    "table(unnest(speech_line, 'LINE')) l");
  EXPECT_GT(h, 0);
  EXPECT_EQ(h, x);
}

TEST_F(ShakespeareIntegrationTest, QS2MatchedLinesAgree) {
  QueryResult h = RunSql(hybrid_,
                      "SELECT DISTINCT lineID FROM line, stagedir "
                      "WHERE stagedir_parentID = lineID "
                      "AND stagedir_parentCODE = 'LINE'");
  int64_t x = Count(xorator_,
                    "SELECT COUNT(*) AS n FROM speech, "
                    "table(unnest(getElm(speech_line, 'LINE', 'STAGEDIR', "
                    "''), 'LINE')) u");
  EXPECT_GT(x, 0);
  EXPECT_EQ(static_cast<int64_t>(h.rows.size()), x);
}

TEST_F(ShakespeareIntegrationTest, QS3SelectionAgrees) {
  QueryResult h = RunSql(hybrid_,
                      "SELECT DISTINCT lineID FROM line, stagedir "
                      "WHERE stagedir_parentID = lineID "
                      "AND stagedir_parentCODE = 'LINE' "
                      "AND stagedir_value LIKE '%Rising%'");
  int64_t x = Count(xorator_,
                    "SELECT COUNT(*) AS n FROM speech, "
                    "table(unnest(getElm(speech_line, 'LINE', 'STAGEDIR', "
                    "'Rising'), 'LINE')) u");
  EXPECT_GT(x, 0);
  EXPECT_EQ(static_cast<int64_t>(h.rows.size()), x);
}

TEST_F(ShakespeareIntegrationTest, QS4SpeechIdsAgree) {
  // Surrogate ids are assigned in document order by both shredders, so the
  // selected speech ids must agree exactly.
  const auto& queries = benchutil::ShakespeareQueries();
  QueryResult h = RunSql(hybrid_, queries[3].hybrid_sql);
  QueryResult x = RunSql(xorator_, queries[3].xorator_sql);
  EXPECT_GT(h.rows.size(), 0u);
  EXPECT_EQ(Column0(h), Column0(x));
}

TEST_F(ShakespeareIntegrationTest, QS5MatchedLineCountsAgree) {
  int64_t h = Count(
      hybrid_,
      "SELECT COUNT(*) AS n FROM play, act, scene, speech, speaker, line "
      "WHERE play_title = 'Romeo and Juliet' AND act_parentID = playID "
      "AND scene_parentID = actID AND scene_parentCODE = 'ACT' "
      "AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' "
      "AND speaker_parentID = speechID AND speaker_value = 'ROMEO' "
      "AND line_parentID = speechID AND line_value LIKE '%love%'");
  int64_t x = Count(
      xorator_,
      "SELECT COUNT(*) AS n FROM play, act, scene, speech, "
      "table(unnest(getElm(speech_line, 'LINE', 'LINE', 'love'), 'LINE')) u "
      "WHERE play_title = 'Romeo and Juliet' AND act_parentID = playID "
      "AND scene_parentID = actID AND scene_parentCODE = 'ACT' "
      "AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' "
      "AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1");
  EXPECT_EQ(h, x);
}

TEST_F(ShakespeareIntegrationTest, QS6SecondLineCountsAgree) {
  int64_t h = Count(hybrid_,
                    "SELECT COUNT(*) AS n FROM prologue, speech, line "
                    "WHERE speech_parentID = prologueID "
                    "AND speech_parentCODE = 'PROLOGUE' "
                    "AND line_parentID = speechID AND line_childOrder = 2");
  int64_t x = Count(xorator_,
                    "SELECT COUNT(*) AS n FROM speech, "
                    "table(unnest(getElmIndex(speech_line, '', 'LINE', 2, 2), "
                    "'LINE')) u "
                    "WHERE speech_parentCODE = 'PROLOGUE'");
  EXPECT_GT(h, 0);
  EXPECT_EQ(h, x);
}

TEST(SkewedParentCodeTest, XoratorQs6ScansRareParentCodeIndex) {
  // With 24 speeches per scene, 'PROLOGUE' marks under 2% of the speeches
  // (3-value speech_parentCODE). The advisor indexes it for XORator, whose
  // QS6 scans speech directly, but not for Hybrid, whose QS6 reaches speech
  // through an index join where the literal is a residual filter.
  datagen::ShakespeareOptions opts;
  opts.plays = 4;
  opts.acts_per_play = 3;
  opts.scenes_per_act = 3;
  opts.speeches_per_scene = 24;
  auto corpus = datagen::ShakespeareGenerator(opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  ExperimentOptions options;
  options.advisor_queries = AdvisorQueries();
  options.mapping = Mapping::kHybrid;
  auto hybrid = BuildExperimentDb(datagen::kShakespeareDtd, docs, options);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  options.mapping = Mapping::kXorator;
  auto xorator = BuildExperimentDb(datagen::kShakespeareDtd, docs, options);
  ASSERT_TRUE(xorator.ok()) << xorator.status().ToString();

  const benchutil::PaperQuery& qs6 = benchutil::ShakespeareQueries()[5];
  auto x = xorator->db->Explain(qs6.xorator_sql);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_NE(x->find("IndexScan(speech AS speech ON speech_parentCODE = "
                    "PROLOGUE)"),
            std::string::npos)
      << *x;
  auto h = hybrid->db->Explain(qs6.hybrid_sql);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->find("ON speech_parentCODE"), std::string::npos) << *h;
  EXPECT_EQ(
      hybrid->db->catalog()->FindTable("speech")->FindIndex(
          "speech_parentCODE"),
      nullptr);

  // The same answer through the index: QS6SecondLineCountsAgree's counts.
  int64_t hc = Count(&*hybrid,
                     "SELECT COUNT(*) AS n FROM prologue, speech, line "
                     "WHERE speech_parentID = prologueID "
                     "AND speech_parentCODE = 'PROLOGUE' "
                     "AND line_parentID = speechID AND line_childOrder = 2");
  int64_t xc = Count(&*xorator,
                     "SELECT COUNT(*) AS n FROM speech, "
                     "table(unnest(getElmIndex(speech_line, '', 'LINE', 2, "
                     "2), 'LINE')) u "
                     "WHERE speech_parentCODE = 'PROLOGUE'");
  EXPECT_GT(hc, 0);
  EXPECT_EQ(hc, xc);
}

TEST_F(ShakespeareIntegrationTest, UdfOverheadQueriesAgree) {
  for (const auto& q : benchutil::UdfOverheadQueries()) {
    QueryResult builtin = RunSql(hybrid_, q.hybrid_sql);
    QueryResult udf = RunSql(hybrid_, q.xorator_sql);
    EXPECT_EQ(Column0(builtin), Column0(udf)) << q.id;
    EXPECT_EQ(builtin.udf_stats.scalar_calls, 0u);
    EXPECT_EQ(udf.udf_stats.scalar_calls, builtin.rows.size());
  }
}

TEST_F(ShakespeareIntegrationTest, ScalingLoadsMultiplier) {
  std::vector<const xml::Node*> docs;
  for (const auto& d : *corpus_) docs.push_back(d.get());
  ExperimentOptions opts;
  opts.mapping = Mapping::kXorator;
  opts.load_multiplier = 2;
  auto db2 = BuildExperimentDb(datagen::kShakespeareDtd, docs, opts);
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ(Count(&*db2, "SELECT COUNT(*) AS n FROM play"),
            2 * Count(xorator_, "SELECT COUNT(*) AS n FROM play"));
}

// ------------------------------------------------------------------ SIGMOD

class SigmodIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::SigmodOptions opts;
    opts.documents = 150;
    corpus_ = new std::vector<std::unique_ptr<xml::Node>>(
        datagen::SigmodGenerator(opts).GenerateCorpus());
    std::vector<const xml::Node*> docs;
    for (const auto& d : *corpus_) docs.push_back(d.get());

    ExperimentOptions hybrid_opts;
    hybrid_opts.mapping = Mapping::kHybrid;
    hybrid_opts.advisor_queries = AdvisorQueries();
    auto hybrid = BuildExperimentDb(datagen::kSigmodDtd, docs, hybrid_opts);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    hybrid_ = new ExperimentDb(std::move(*hybrid));

    ExperimentOptions xorator_opts;
    xorator_opts.mapping = Mapping::kXorator;
    xorator_opts.advisor_queries = AdvisorQueries();
    auto xorator = BuildExperimentDb(datagen::kSigmodDtd, docs, xorator_opts);
    ASSERT_TRUE(xorator.ok()) << xorator.status().ToString();
    xorator_ = new ExperimentDb(std::move(*xorator));
  }

  static void TearDownTestSuite() {
    delete hybrid_;
    delete xorator_;
    delete corpus_;
    hybrid_ = nullptr;
    xorator_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::unique_ptr<xml::Node>>* corpus_;
  static ExperimentDb* hybrid_;
  static ExperimentDb* xorator_;
};

std::vector<std::unique_ptr<xml::Node>>* SigmodIntegrationTest::corpus_ =
    nullptr;
ExperimentDb* SigmodIntegrationTest::hybrid_ = nullptr;
ExperimentDb* SigmodIntegrationTest::xorator_ = nullptr;

TEST_F(SigmodIntegrationTest, Table2Shape) {
  EXPECT_EQ(hybrid_->schema.tables.size(), 7u);
  EXPECT_EQ(xorator_->schema.tables.size(), 1u);
  EXPECT_LT(xorator_->db->DataBytes(), hybrid_->db->DataBytes());
  // The deep DTD chooses the compressed XADT representation (Section 4.4).
  EXPECT_TRUE(xorator_->load.used_compression);
}

TEST_F(SigmodIntegrationTest, AllPaperQueriesRunOnBothSchemas) {
  for (const auto& q : benchutil::SigmodQueries()) {
    auto h = hybrid_->db->Query(q.hybrid_sql);
    ASSERT_TRUE(h.ok()) << q.id << " hybrid: " << h.status().ToString();
    auto x = xorator_->db->Query(q.xorator_sql);
    ASSERT_TRUE(x.ok()) << q.id << " xorator: " << x.status().ToString();
  }
}

TEST_F(SigmodIntegrationTest, QG1AuthorsAgree) {
  QueryResult h = RunSql(hybrid_, benchutil::SigmodQueries()[0].hybrid_sql);
  QueryResult x = RunSql(xorator_,
                      "SELECT u.out FROM pp, "
                      "table(unnest(getElm(getElm(pp_slist, 'aTuple', "
                      "'title', 'Join'), 'author', '', ''), 'author')) u");
  EXPECT_GT(h.rows.size(), 0u);
  EXPECT_EQ(Column0(h), Column0(x));
}

TEST_F(SigmodIntegrationTest, QG2FlatteningAgrees) {
  const auto& q = benchutil::SigmodQueries()[1];
  QueryResult h = RunSql(hybrid_, q.hybrid_sql);
  QueryResult x = RunSql(xorator_, q.xorator_sql);
  ASSERT_GT(h.rows.size(), 0u);
  auto pair_set = [](const QueryResult& r) {
    std::multiset<std::string> out;
    for (const Tuple& row : r.rows) {
      out.insert(row[0].ToString() + "\x01" + row[1].ToString());
    }
    return out;
  };
  EXPECT_EQ(pair_set(h), pair_set(x));
}

TEST_F(SigmodIntegrationTest, QG3SectionNamesAgree) {
  QueryResult h = RunSql(hybrid_, benchutil::SigmodQueries()[2].hybrid_sql);
  QueryResult x = RunSql(xorator_,
                      "SELECT u.out FROM pp, "
                      "table(unnest(getElm(getElm(pp_slist, 'sListTuple', "
                      "'author', 'Worthy'), 'sectionName', '', ''), "
                      "'sectionName')) u "
                      "WHERE findKeyInElm(pp_slist, 'author', 'Worthy') = 1");
  EXPECT_EQ(Column0(h), Column0(x));
}

TEST_F(SigmodIntegrationTest, QG4GroupedCountsAgree) {
  const auto& q = benchutil::SigmodQueries()[3];
  QueryResult h = RunSql(hybrid_, q.hybrid_sql);
  QueryResult x = RunSql(xorator_, q.xorator_sql);
  ASSERT_GT(h.rows.size(), 0u);
  auto as_map = [](const QueryResult& r) {
    std::map<std::string, int64_t> out;
    for (const Tuple& row : r.rows) out[row[0].AsString()] = row[1].AsInt();
    return out;
  };
  EXPECT_EQ(as_map(h), as_map(x));
}

TEST_F(SigmodIntegrationTest, QG5CountsAgree) {
  const auto& q = benchutil::SigmodQueries()[4];
  int64_t h = Count(hybrid_, q.hybrid_sql);
  int64_t x = Count(xorator_, q.xorator_sql);
  EXPECT_EQ(h, x);
}

TEST_F(SigmodIntegrationTest, QG6SecondAuthorsAgree) {
  QueryResult h = RunSql(hybrid_, benchutil::SigmodQueries()[5].hybrid_sql);
  QueryResult x = RunSql(xorator_,
                      "SELECT u.out FROM pp, "
                      "table(unnest(getElmIndex(getElm(pp_slist, 'aTuple', "
                      "'title', 'Join'), 'authors', 'author', 2, 2), "
                      "'author')) u");
  EXPECT_GT(h.rows.size(), 0u);
  EXPECT_EQ(Column0(h), Column0(x));
}

// ----------------------------------------- randomized equivalence property

TEST(RandomizedEquivalenceTest, HybridAndXoratorAgreeOnRandomPlays) {
  auto dtd = xml::ParseDtd(datagen::kPlaysDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    opts.max_repeat = 4;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    std::vector<std::unique_ptr<xml::Node>> docs;
    for (int d = 0; d < 6; ++d) {
      auto doc = gen.Generate("PLAY");
      ASSERT_TRUE(doc.ok());
      docs.push_back(std::move(*doc));
    }
    std::vector<const xml::Node*> raw;
    for (const auto& d : docs) raw.push_back(d.get());

    ExperimentOptions hybrid_opts;
    hybrid_opts.mapping = Mapping::kHybrid;
    auto hybrid = BuildExperimentDb(datagen::kPlaysDtd, raw, hybrid_opts);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    ExperimentOptions xorator_opts;
    xorator_opts.mapping = Mapping::kXorator;
    auto xorator = BuildExperimentDb(datagen::kPlaysDtd, raw, xorator_opts);
    ASSERT_TRUE(xorator.ok()) << xorator.status().ToString();

    // Structural counts agree.
    for (const char* table : {"play", "act", "scene", "speech", "induct"}) {
      std::string sql = std::string("SELECT COUNT(*) AS n FROM ") + table;
      EXPECT_EQ(Count(&*hybrid, sql), Count(&*xorator, sql))
          << "seed " << seed << " " << table;
    }
    // Speaker x line flattening agrees.
    int64_t h = Count(&*hybrid,
                      "SELECT COUNT(*) AS n FROM speech, speaker, line "
                      "WHERE speaker_parentID = speechID "
                      "AND line_parentID = speechID");
    int64_t x = Count(&*xorator,
                      "SELECT COUNT(*) AS n FROM speech, "
                      "table(unnest(speech_speaker, 'SPEAKER')) s, "
                      "table(unnest(speech_line, 'LINE')) l");
    EXPECT_EQ(h, x) << "seed " << seed;
    // Second-line order access agrees.
    int64_t h2 = Count(&*hybrid,
                       "SELECT COUNT(*) AS n FROM line "
                       "WHERE line_childOrder = 2");
    int64_t x2 = Count(&*xorator,
                       "SELECT COUNT(*) AS n FROM speech, "
                       "table(unnest(getElmIndex(speech_line, '', 'LINE', 2, "
                       "2), 'LINE')) u");
    EXPECT_EQ(h2, x2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xorator
