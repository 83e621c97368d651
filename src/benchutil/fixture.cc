#include "benchutil/fixture.h"

#include "dtdgraph/simplify.h"
#include "mapping/mapper.h"
#include "xadt/functions.h"
#include "xml/dtd.h"

namespace xorator::benchutil {

Result<mapping::MappedSchema> MapDtd(const std::string& dtd_text,
                                     Mapping mapping) {
  XO_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text));
  XO_ASSIGN_OR_RETURN(auto simplified, dtdgraph::Simplify(dtd));
  switch (mapping) {
    case Mapping::kHybrid:
      return mapping::MapHybrid(simplified);
    case Mapping::kXorator:
      return mapping::MapXorator(simplified);
    case Mapping::kShared:
      return mapping::MapShared(simplified);
    case Mapping::kPerElement:
      return mapping::MapPerElement(simplified);
    case Mapping::kXoratorTuned:
      return Status::InvalidArgument(
          "kXoratorTuned needs documents; use BuildExperimentDb");
  }
  return Status::InvalidArgument("bad mapping");
}

Result<ExperimentDb> BuildExperimentDb(
    const std::string& dtd_text,
    const std::vector<const xml::Node*>& documents,
    const ExperimentOptions& options) {
  ExperimentDb out;
  if (options.mapping == Mapping::kXoratorTuned) {
    XO_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text));
    XO_ASSIGN_OR_RETURN(auto simplified, dtdgraph::Simplify(dtd));
    std::vector<const xml::Node*> sample(
        documents.begin(),
        documents.begin() +
            std::min(documents.size(), options.tuned_sample_docs));
    mapping::XmlStats stats = mapping::CollectXmlStats(sample);
    XO_ASSIGN_OR_RETURN(out.schema, mapping::MapXoratorTuned(
                                        simplified, stats, options.tuned));
  } else {
    XO_ASSIGN_OR_RETURN(out.schema, MapDtd(dtd_text, options.mapping));
  }
  XO_ASSIGN_OR_RETURN(out.db, ordb::Database::Open(options.db_options));
  XO_RETURN_NOT_OK(xadt::RegisterXadtFunctions(out.db->functions()));
  shred::Loader loader(out.db.get(), &out.schema);
  XO_RETURN_NOT_OK(loader.CreateTables());
  std::vector<const xml::Node*> multiplied;
  multiplied.reserve(documents.size() *
                     static_cast<size_t>(std::max(1, options.load_multiplier)));
  for (int m = 0; m < std::max(1, options.load_multiplier); ++m) {
    for (const xml::Node* doc : documents) multiplied.push_back(doc);
  }
  XO_ASSIGN_OR_RETURN(out.load, loader.Load(multiplied, options.load_options));
  // Primary-key indexes, which DB2 creates implicitly for the ID column the
  // mapping algorithms add to every relation.
  for (const mapping::TableSpec& table : out.schema.tables) {
    int id_col = table.RoleIndex(mapping::ColumnRole::kId);
    if (id_col >= 0) {
      XO_RETURN_NOT_OK(
          out.db->CreateIndex(table.name, table.columns[id_col].name));
    }
  }
  // Creating indexes changes no column statistic, so one pass serves the
  // advisor and the plans after it.
  XO_RETURN_NOT_OK(out.db->RunStats());
  if (!options.advisor_queries.empty()) {
    XO_RETURN_NOT_OK(out.db->AdviseIndexes(options.advisor_queries));
  }
  return out;
}

}  // namespace xorator::benchutil
