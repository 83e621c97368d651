#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "dtdgraph/simplify.h"
#include "mapping/mapper.h"
#include "mapping/xml_stats.h"
#include "shred/loader.h"
#include "shred/shredder.h"
#include "xadt/functions.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xorator::shred {
namespace {

using benchutil::MapDtd;
using benchutil::Mapping;
using ordb::Tuple;
using ordb::TypeId;
using ordb::Value;

constexpr char kPlayDoc[] = R"(
<PLAY>
  <INDUCT>
    <TITLE>Induction</TITLE>
    <SUBTITLE>sub one</SUBTITLE>
    <SCENE>
      <TITLE>Scene i</TITLE>
      <SPEECH><SPEAKER>s1</SPEAKER><LINE>l1</LINE></SPEECH>
    </SCENE>
  </INDUCT>
  <ACT>
    <SCENE>
      <TITLE>Scene a</TITLE>
      <SPEECH>
        <SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>
        <LINE>first line</LINE><LINE>second line</LINE>
      </SPEECH>
      <SUBHEAD>head</SUBHEAD>
    </SCENE>
    <TITLE>Act One</TITLE>
    <SUBTITLE>alpha</SUBTITLE>
    <SUBTITLE>beta</SUBTITLE>
    <SPEECH><SPEAKER>s3</SPEAKER><LINE>act line</LINE></SPEECH>
    <PROLOGUE>pro</PROLOGUE>
  </ACT>
</PLAY>
)";

const Tuple* FindRow(const std::vector<Tuple>& rows, int id_col, int64_t id) {
  for (const Tuple& row : rows) {
    if (row[id_col].AsInt() == id) return &row;
  }
  return nullptr;
}

class ShredPlaysTest : public ::testing::Test {
 protected:
  void Shred(Mapping mapping, bool compress = false) {
    auto schema = MapDtd(datagen::kPlaysDtd, mapping);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    schema_ = std::move(*schema);
    auto doc = xml::ParseDocument(kPlayDoc);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    Shredder shredder(&schema_, compress);
    batch_.clear();
    ASSERT_TRUE(shredder.Shred(*doc->root, &batch_).ok());
  }

  int Col(const std::string& table, const std::string& column) {
    const mapping::TableSpec* spec = schema_.FindTable(table);
    EXPECT_NE(spec, nullptr) << table;
    int idx = spec->ColumnIndex(column);
    EXPECT_GE(idx, 0) << table << "." << column;
    return idx;
  }

  mapping::MappedSchema schema_;
  RowBatch batch_;
};

TEST_F(ShredPlaysTest, HybridRowCounts) {
  Shred(Mapping::kHybrid);
  EXPECT_EQ(batch_["play"].size(), 1u);
  EXPECT_EQ(batch_["induct"].size(), 1u);
  EXPECT_EQ(batch_["act"].size(), 1u);
  EXPECT_EQ(batch_["scene"].size(), 2u);
  EXPECT_EQ(batch_["speech"].size(), 3u);
  EXPECT_EQ(batch_["speaker"].size(), 4u);
  EXPECT_EQ(batch_["line"].size(), 4u);
  EXPECT_EQ(batch_["subtitle"].size(), 3u);
  EXPECT_EQ(batch_["subhead"].size(), 1u);
}

TEST_F(ShredPlaysTest, HybridParentLinksAndCodes) {
  Shred(Mapping::kHybrid);
  // The induct scene's parent is the induct; the act scene's parent the act.
  int scene_parent = Col("scene", "scene_parentID");
  int scene_code = Col("scene", "scene_parentCODE");
  int scene_id = Col("scene", "sceneID");
  const Tuple* s1 = FindRow(batch_["scene"], scene_id, 1);
  const Tuple* s2 = FindRow(batch_["scene"], scene_id, 2);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ((*s1)[scene_code].AsString(), "INDUCT");
  EXPECT_EQ((*s2)[scene_code].AsString(), "ACT");
  EXPECT_EQ((*s1)[scene_parent].AsInt(), 1);
  EXPECT_EQ((*s2)[scene_parent].AsInt(), 1);

  // Speeches: one under the induct scene, one under the act scene, one
  // directly under the act.
  int speech_code = Col("speech", "speech_parentCODE");
  std::multiset<std::string> codes;
  for (const Tuple& row : batch_["speech"]) {
    codes.insert(row[speech_code].AsString());
  }
  EXPECT_EQ(codes, (std::multiset<std::string>{"ACT", "SCENE", "SCENE"}));
}

TEST_F(ShredPlaysTest, HybridChildOrderCountsSameTagSiblings) {
  Shred(Mapping::kHybrid);
  int order = Col("line", "line_childOrder");
  int value = Col("line", "line_value");
  std::map<std::string, int64_t> orders;
  for (const Tuple& row : batch_["line"]) {
    orders[row[value].AsString()] = row[order].AsInt();
  }
  EXPECT_EQ(orders["first line"], 1);
  EXPECT_EQ(orders["second line"], 2);
  EXPECT_EQ(orders["act line"], 1);
}

TEST_F(ShredPlaysTest, HybridInlinedLeaves) {
  Shred(Mapping::kHybrid);
  int act_title = Col("act", "act_title");
  int act_prologue = Col("act", "act_prologue");
  const Tuple& act = batch_["act"][0];
  EXPECT_EQ(act[act_title].AsString(), "Act One");
  EXPECT_EQ(act[act_prologue].AsString(), "pro");
  int induct_title = Col("induct", "induct_title");
  EXPECT_EQ(batch_["induct"][0][induct_title].AsString(), "Induction");
}

TEST_F(ShredPlaysTest, XoratorRowCounts) {
  Shred(Mapping::kXorator);
  EXPECT_EQ(batch_["play"].size(), 1u);
  EXPECT_EQ(batch_["induct"].size(), 1u);
  EXPECT_EQ(batch_["act"].size(), 1u);
  EXPECT_EQ(batch_["scene"].size(), 2u);
  EXPECT_EQ(batch_["speech"].size(), 3u);
  EXPECT_EQ(batch_.count("speaker"), 0u);
  EXPECT_EQ(batch_.count("line"), 0u);
}

TEST_F(ShredPlaysTest, XoratorXadtFragments) {
  Shred(Mapping::kXorator);
  int speaker = Col("speech", "speech_speaker");
  int line = Col("speech", "speech_line");
  int id = Col("speech", "speechID");
  const Tuple* speech2 = FindRow(batch_["speech"], id, 2);
  ASSERT_NE(speech2, nullptr);
  ASSERT_EQ((*speech2)[speaker].type(), TypeId::kXadt);
  auto speakers = xadt::ToXmlString((*speech2)[speaker].AsString());
  ASSERT_TRUE(speakers.ok());
  EXPECT_EQ(*speakers, "<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>");
  auto lines = xadt::ToXmlString((*speech2)[line].AsString());
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, "<LINE>first line</LINE><LINE>second line</LINE>");

  int subtitle = Col("act", "act_subtitle");
  auto subs = xadt::ToXmlString(batch_["act"][0][subtitle].AsString());
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(*subs, "<SUBTITLE>alpha</SUBTITLE><SUBTITLE>beta</SUBTITLE>");
}

TEST_F(ShredPlaysTest, XoratorMissingOptionalIsNull) {
  Shred(Mapping::kXorator);
  // The induct has no SUBHEAD XADT column; its scene's subhead is null for
  // scene 1 and populated for scene 2.
  int subhead = Col("scene", "scene_subhead");
  int id = Col("scene", "sceneID");
  const Tuple* s1 = FindRow(batch_["scene"], id, 1);
  const Tuple* s2 = FindRow(batch_["scene"], id, 2);
  EXPECT_TRUE((*s1)[subhead].is_null());
  ASSERT_FALSE((*s2)[subhead].is_null());
  EXPECT_EQ(*xadt::TextContent((*s2)[subhead].AsString()), "head");
}

TEST_F(ShredPlaysTest, CompressedShreddingRoundTrips) {
  Shred(Mapping::kXorator, /*compress=*/true);
  int line = Col("speech", "speech_line");
  int id = Col("speech", "speechID");
  const Tuple* speech2 = FindRow(batch_["speech"], id, 2);
  ASSERT_NE(speech2, nullptr);
  EXPECT_TRUE(xadt::IsCompressed((*speech2)[line].AsString()));
  EXPECT_EQ(*xadt::ToXmlString((*speech2)[line].AsString()),
            "<LINE>first line</LINE><LINE>second line</LINE>");
}

TEST_F(ShredPlaysTest, IdsPersistAcrossDocuments) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  Shredder shredder(&*schema, false);
  RowBatch batch;
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  EXPECT_EQ(batch["play"].size(), 2u);
  const mapping::TableSpec* play = schema->FindTable("play");
  int id = play->ColumnIndex("playID");
  EXPECT_EQ(batch["play"][0][id].AsInt(), 1);
  EXPECT_EQ(batch["play"][1][id].AsInt(), 2);
  EXPECT_EQ(shredder.NextId("play"), 3);
}

TEST_F(ShredPlaysTest, UnmappedRootRejected) {
  Shred(Mapping::kXorator);
  auto doc = xml::ParseDocument("<NOTPLAY/>");
  ASSERT_TRUE(doc.ok());
  Shredder shredder(&schema_, false);
  RowBatch batch;
  EXPECT_FALSE(shredder.Shred(*doc->root, &batch).ok());
}

TEST(SigmodShredTest, DeepInlinedPathsAndAttributes) {
  auto schema = MapDtd(datagen::kSigmodDtd, Mapping::kHybrid);
  ASSERT_TRUE(schema.ok());
  const char* kDoc =
      "<PP><volume>11</volume><number>2</number><month>6</month>"
      "<year>1999</year><conference>SIGMOD</conference>"
      "<date>1/6/1999</date><confyear>1999</confyear>"
      "<location>Philadelphia</location><sList>"
      "<sListTuple><sectionName SectionPosition='1'>Joins</sectionName>"
      "<articles><aTuple><title articleCode='a1'>Join Order</title>"
      "<authors><author AuthorPosition='1'>Alice</author>"
      "<author AuthorPosition='2'>Bob</author></authors>"
      "<initPage>1</initPage><endPage>12</endPage>"
      "<Toindex><index href='x.xml'>terms</index></Toindex>"
      "<fullText><size href='y.pdf'>120KB</size></fullText>"
      "</aTuple></articles></sListTuple></sList></PP>";
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Shredder shredder(&*schema, false);
  RowBatch batch;
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  const mapping::TableSpec* atuple = schema->FindTable("atuple");
  const Tuple& at = batch["atuple"][0];
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_title")].AsString(), "Join Order");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_title_articlecode")].AsString(),
            "a1");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_toindex_index")].AsString(),
            "terms");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_toindex_index_href")].AsString(),
            "x.xml");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_fulltext_size_href")].AsString(),
            "y.pdf");
  const mapping::TableSpec* author = schema->FindTable("author");
  ASSERT_EQ(batch["author"].size(), 2u);
  EXPECT_EQ(
      batch["author"][1][author->ColumnIndex("author_authorposition")]
          .AsString(),
      "2");
  EXPECT_EQ(batch["author"][1][author->ColumnIndex("author_childOrder")]
                .AsInt(),
            2);
}

TEST(LoaderTest, LoadsAndDecidesCompression) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto db = ordb::Database::Open({});
  ASSERT_TRUE(db.ok());
  Loader loader(db->get(), &*schema);
  ASSERT_TRUE(loader.CreateTables().ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  std::vector<const xml::Node*> docs(8, doc->root.get());
  auto report = loader.Load(docs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->documents, 8u);
  EXPECT_GT(report->tuples, 40u);
  auto r = (*db)->Query("SELECT COUNT(*) AS n FROM speech");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 24);
}

TEST(LoaderTest, ForcedCompressionModes) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  for (bool compressed : {false, true}) {
    auto db = ordb::Database::Open({});
    ASSERT_TRUE(db.ok());
    Loader loader(db->get(), &*schema);
    ASSERT_TRUE(loader.CreateTables().ok());
    LoadOptions opts;
    opts.compression = compressed;
    auto report = loader.Load({doc->root.get()}, opts);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->used_compression, compressed);
  }
}

// ---------------------------------------------------------------------------
// Appends: ids stay unique across Load calls and a reopen.

/// Six small Shakespeare plays: the base is plays 0-1, then one append
/// each of plays 2 and 3, a reopen, and one append of plays 4-5.
class AppendTest : public ::testing::TestWithParam<Mapping> {
 protected:
  void SetUp() override {
    datagen::ShakespeareOptions opts;
    opts.plays = 6;
    opts.acts_per_play = 3;
    opts.scenes_per_act = 3;
    opts.speeches_per_scene = 8;
    corpus_ = datagen::ShakespeareGenerator(opts).GenerateCorpus();
    for (const auto& d : corpus_) docs_.push_back(d.get());
    if (GetParam() == Mapping::kXoratorTuned) {
      auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
      ASSERT_TRUE(dtd.ok());
      auto simplified = dtdgraph::Simplify(*dtd);
      ASSERT_TRUE(simplified.ok());
      auto tuned = mapping::MapXoratorTuned(
          *simplified, mapping::CollectXmlStats(docs_), {});
      ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
      schema_ = std::move(*tuned);
    } else {
      auto mapped = MapDtd(datagen::kShakespeareDtd, GetParam());
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      schema_ = std::move(*mapped);
    }
    path_ = ::testing::TempDir() + "/append_" +
            std::to_string(static_cast<int>(GetParam())) + ".db";
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".wal");
  }

  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".wal");
  }

  std::unique_ptr<ordb::Database> Open(const std::string& path) {
    ordb::DbOptions options;
    options.path = path;
    auto db = ordb::Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    EXPECT_TRUE(xadt::RegisterXadtFunctions((*db)->functions()).ok());
    return std::move(*db);
  }

  void Load(ordb::Database* db, size_t begin, size_t end) {
    std::vector<const xml::Node*> batch(docs_.begin() + begin,
                                        docs_.begin() + end);
    auto report = Loader(db, &schema_).Load(batch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->documents, end - begin);
    EXPECT_TRUE(report->errors.empty());
  }

  void CreateIdIndexes(ordb::Database* db) {
    for (const mapping::TableSpec& table : schema_.tables) {
      const int id = table.RoleIndex(mapping::ColumnRole::kId);
      ASSERT_TRUE(db->CreateIndex(table.name, table.columns[id].name).ok());
    }
  }

  /// The base load, an append before and after the ID indexes exist (the
  /// loader reads the largest id by a scan, then from the index), a reopen
  /// and one more append.
  std::unique_ptr<ordb::Database> LoadInBatches() {
    auto db = Open(path_);
    if (db == nullptr) return nullptr;
    EXPECT_TRUE(Loader(db.get(), &schema_).CreateTables().ok());
    Load(db.get(), 0, 2);
    Load(db.get(), 2, 3);
    CreateIdIndexes(db.get());
    Load(db.get(), 3, 4);
    EXPECT_TRUE(db->Close().ok());
    db = Open(path_);
    if (db == nullptr) return nullptr;
    Load(db.get(), 4, 6);
    return db;
  }

  /// Every row of every table has its own id.
  void ExpectUniqueIds(ordb::Database* db) {
    for (const mapping::TableSpec& table : schema_.tables) {
      const std::string& id =
          table.columns[table.RoleIndex(mapping::ColumnRole::kId)].name;
      auto rows = db->Query("SELECT COUNT(*) AS n FROM " + table.name);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      auto ids = db->Query("SELECT DISTINCT " + id + " FROM " + table.name);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(static_cast<int64_t>(ids->rows.size()),
                rows->rows[0][0].AsInt())
          << table.name;
    }
  }

  std::vector<std::unique_ptr<xml::Node>> corpus_;
  std::vector<const xml::Node*> docs_;
  mapping::MappedSchema schema_;
  std::string path_;
};

/// A statement's rows rendered and sorted, so answers compare as multisets.
std::vector<std::string> SortedRows(ordb::Database* db, const std::string& sql) {
  auto r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n -> " << r.status().ToString();
  std::vector<std::string> out;
  if (!r.ok()) return out;
  for (const Tuple& row : r->rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(AppendTest, IdsStayUniqueAcrossAppendsAndReopen) {
  auto db = LoadInBatches();
  ASSERT_NE(db, nullptr);
  ExpectUniqueIds(db.get());
  ASSERT_TRUE(db->Close().ok());
}

/// The paper's queries are written for the Hybrid and XORator schemas.
using AppendQueriesTest = AppendTest;

TEST_P(AppendQueriesTest, PaperQueriesAnswerAsAfterOneLoad) {
  const Mapping mapping = GetParam();
  auto appended = LoadInBatches();
  ASSERT_NE(appended, nullptr);
  auto once = Open("");
  ASSERT_NE(once, nullptr);
  ASSERT_TRUE(Loader(once.get(), &schema_).CreateTables().ok());
  Load(once.get(), 0, docs_.size());
  for (const benchutil::PaperQuery& q : benchutil::ShakespeareQueries()) {
    const std::string& sql =
        mapping == Mapping::kHybrid ? q.hybrid_sql : q.xorator_sql;
    const std::vector<std::string> expected = SortedRows(once.get(), sql);
    EXPECT_FALSE(expected.empty()) << q.id;
    EXPECT_EQ(SortedRows(appended.get(), sql), expected) << q.id;
  }
  ASSERT_TRUE(appended->Close().ok());
}

TEST_P(AppendTest, AppendAfterADeleteGapKeepsIdsUnique) {
  auto db = Open(path_);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(Loader(db.get(), &schema_).CreateTables().ok());
  Load(db.get(), 0, 3);
  CreateIdIndexes(db.get());
  // Deleting the middle play leaves a gap: appends continue past the
  // largest id, not past the row count.
  const mapping::TableSpec* play = schema_.FindTable("play");
  ASSERT_NE(play, nullptr);
  const std::string& id =
      play->columns[play->RoleIndex(mapping::ColumnRole::kId)].name;
  ASSERT_TRUE(db->Execute("DELETE FROM play WHERE " + id + " = 2").ok());
  Load(db.get(), 3, 5);
  ExpectUniqueIds(db.get());
  auto max = db->Query("SELECT MAX(" + id + ") FROM play");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->rows[0][0].AsInt(), 5);
  ASSERT_TRUE(db->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(BothDialects, AppendQueriesTest,
                         ::testing::Values(Mapping::kHybrid,
                                           Mapping::kXorator));

INSTANTIATE_TEST_SUITE_P(
    AllMappings, AppendTest,
    ::testing::Values(Mapping::kHybrid, Mapping::kXorator, Mapping::kShared,
                      Mapping::kPerElement, Mapping::kXoratorTuned));

}  // namespace
}  // namespace xorator::shred
