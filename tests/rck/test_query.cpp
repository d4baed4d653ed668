// rck::Query / run_query — the consolidated query surface: shape
// validation, agreement with the direct kernel, ranking/top-k semantics,
// stable JSON, and fault-tolerant queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "rck/bio/synthetic.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/obs/trace_check.hpp"
#include "rck/bio/dataset.hpp"
#include "rck/rck.hpp"

namespace {

using namespace rck;

class QueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bio::Rng rng(0x9E12);
    database_ = new std::vector<bio::Protein>();
    for (int i = 0; i < 5; ++i)
      database_->push_back(
          bio::make_protein("db" + std::to_string(i), 26 + 5 * i, rng));
    probe_ = new bio::Protein(bio::perturb((*database_)[2], "probe", rng));
  }
  static void TearDownTestSuite() {
    delete probe_;
    delete database_;
    probe_ = nullptr;
    database_ = nullptr;
  }
  static RunConfig config(int slaves) {
    RunConfig cfg;
    cfg.with_slaves(slaves);
    return cfg;
  }
  static std::vector<bio::Protein>* database_;
  static bio::Protein* probe_;
};

std::vector<bio::Protein>* QueryTest::database_ = nullptr;
bio::Protein* QueryTest::probe_ = nullptr;

TEST_F(QueryTest, ValidateQueryChecksShapes) {
  Query pair = Query::pair(*probe_, (*database_)[0]);
  EXPECT_TRUE(validate_query(pair, 0).empty());
  pair.probes.pop_back();
  EXPECT_FALSE(validate_query(pair, 0).empty());

  const Query ova = Query::one_vs_all(*probe_);
  EXPECT_TRUE(validate_query(ova, database_->size()).empty());
  EXPECT_FALSE(validate_query(ova, 0).empty());  // needs a database

  Query kva = Query::k_vs_all({*probe_, (*database_)[0]});
  EXPECT_TRUE(validate_query(kva, database_->size()).empty());
  kva.probes.clear();
  EXPECT_FALSE(validate_query(kva, database_->size()).empty());

  Query empty_probe = Query::one_vs_all(bio::Protein{});
  const auto issues = validate_query(empty_probe, database_->size());
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].field, "query.probes[0]");
}

TEST_F(QueryTest, RunQueryRejectsBadShapesWithConfigError) {
  Query q = Query::one_vs_all(*probe_);
  q.probes.clear();
  EXPECT_THROW(run_query(*database_, q, config(3)), ConfigError);
  EXPECT_THROW(run_query(*database_, Query::one_vs_all(*probe_), config(0)),
               ConfigError);
}

TEST_F(QueryTest, PairQueryMatchesDirectKernel) {
  const QueryResult res = run_query(
      {}, Query::pair(*probe_, (*database_)[2]), config(2));
  ASSERT_EQ(res.hits.size(), 1u);
  const QueryHit& h = res.hits[0];
  EXPECT_EQ(h.probe, 0u);
  EXPECT_EQ(h.entry, 1u);  // the second probe, since a pair has no database
  const core::TmAlignResult direct = core::tmalign(*probe_, (*database_)[2]);
  EXPECT_DOUBLE_EQ(h.tm_query, direct.tm_norm_a);
  EXPECT_DOUBLE_EQ(h.tm_entry, direct.tm_norm_b);
  EXPECT_DOUBLE_EQ(h.rmsd, direct.rmsd);
}

TEST_F(QueryTest, KVsAllCoversEveryProbeEntryPair) {
  const std::vector<bio::Protein> probes{*probe_, (*database_)[0]};
  const QueryResult res =
      run_query(*database_, Query::k_vs_all(probes), config(4));
  EXPECT_EQ(res.hits.size(), probes.size() * database_->size());
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const QueryHit& h : res.hits) seen.insert({h.probe, h.entry});
  EXPECT_EQ(seen.size(), res.hits.size());
  // Probe-major grouping, each probe's group ranked by descending TM.
  for (std::size_t k = 1; k < res.hits.size(); ++k) {
    const QueryHit& prev = res.hits[k - 1];
    const QueryHit& cur = res.hits[k];
    EXPECT_LE(prev.probe, cur.probe);
    if (prev.probe == cur.probe) {
      EXPECT_GE(prev.tm_query, cur.tm_query);
    }
  }
}

TEST_F(QueryTest, TopKTruncatesPerMethodProbeGroup) {
  const QueryResult all =
      run_query(*database_, Query::one_vs_all(*probe_), config(3));
  const QueryResult top2 =
      run_query(*database_, Query::one_vs_all(*probe_, 2), config(3));
  ASSERT_EQ(top2.hits.size(), 2u);
  EXPECT_EQ(top2.hits[0], all.hits[0]);
  EXPECT_EQ(top2.hits[1], all.hits[1]);
}

TEST_F(QueryTest, MultiMethodHitsAreMethodMajorInConfigOrder) {
  RunConfig cfg = config(3);
  cfg.with_methods({rckalign::Method::GaplessRmsd, rckalign::Method::TmAlign});
  const QueryResult res =
      run_query(*database_, Query::one_vs_all(*probe_), cfg);
  ASSERT_EQ(res.hits.size(), 2 * database_->size());
  for (std::size_t k = 0; k < database_->size(); ++k)
    EXPECT_EQ(res.hits[k].method, rckalign::Method::GaplessRmsd);
  for (std::size_t k = database_->size(); k < res.hits.size(); ++k)
    EXPECT_EQ(res.hits[k].method, rckalign::Method::TmAlign);
}

TEST_F(QueryTest, ToJsonIsByteStableAndCarriesTheSchema) {
  const Query q = Query::one_vs_all(*probe_, 3);
  const QueryResult a = run_query(*database_, q, config(3));
  const QueryResult b = run_query(*database_, q, config(3));
  EXPECT_EQ(a, b);
  const std::string ja = a.to_json();
  EXPECT_EQ(ja, b.to_json());
  EXPECT_NE(ja.find("\"schema\": \"rck-query-result-v1\""), std::string::npos);
  EXPECT_NE(ja.find("\"kind\": \"one_vs_all\""), std::string::npos);
  EXPECT_NE(ja.find("\"tm_query\": "), std::string::npos);
}

TEST_F(QueryTest, ArrivalRidesThroughToCompletion) {
  Query q = Query::one_vs_all(*probe_);
  q.at(12345);
  const QueryResult res = run_query(*database_, q, config(3));
  EXPECT_EQ(res.arrival, 12345u);
  EXPECT_EQ(res.completion, 12345u + static_cast<std::uint64_t>(res.makespan));
}

TEST_F(QueryTest, ObsMetricsCarryThePairsPerSecGauge) {
  // run_query's metrics document reports throughput like rck::run()'s.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "rck_query_metrics.json";
  std::filesystem::remove(path);
  RunConfig cfg = config(3);
  cfg.with_metrics(path.string());
  run_query(*database_, Query::one_vs_all(*probe_), cfg);

  std::ifstream in(path);
  ASSERT_TRUE(in) << "metrics not written";
  std::stringstream text;
  text << in.rdbuf();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(text.str(), doc, error)) << error;
  const obs::JsonValue* gauges = doc.get("gauges");
  ASSERT_NE(gauges, nullptr);
  bool found = false;
  for (const obs::JsonValue& g : gauges->array) {
    const obs::JsonValue* name = g.get("name");
    if (name == nullptr || name->string != "app.pairs_per_sec") continue;
    found = true;
    EXPECT_TRUE(g.get("set")->boolean);
    EXPECT_GT(g.get("value")->number, 0.0);
  }
  EXPECT_TRUE(found);
  std::filesystem::remove(path);
}

TEST_F(QueryTest, ChkReportIsWrittenEvenWhenClean) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "rck_query_chk_report.json";
  std::filesystem::remove(path);
  RunConfig cfg = config(3);
  cfg.with_chk_report(path.string());
  run_query(*database_, Query::one_vs_all(*probe_), cfg);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST_F(QueryTest, RunRejectsMultiMethodConfigs) {
  RunConfig cfg = config(3);
  cfg.with_methods({rckalign::Method::TmAlign, rckalign::Method::GaplessRmsd});
  EXPECT_TRUE(cfg.validate().empty());  // valid for queries...
  EXPECT_THROW(rck::run(*database_, cfg), ConfigError);  // ...not for run()
}

TEST(QueryFaultTolerance, UncachedMasterFtQueryMatchesThePlainQuery) {
  // Uncached, every job's cost hint is the L1*L2 proxy rather than cycles.
  // A lease derived from it would expire long before a tiny-dataset job
  // ends, so the farm sizes one fixed lease from its longest job instead.
  const std::vector<bio::Protein> db = bio::build_dataset(bio::tiny_spec());
  const Query q = Query::k_vs_all({db[0], db[4]});
  RunConfig cfg;
  cfg.with_slaves(6);
  const QueryResult plain = run_query(db, q, cfg);
  cfg.with_master_ft();
  const QueryResult ft = run_query(db, q, cfg);
  ASSERT_EQ(ft.hits.size(), 2 * db.size());
  ASSERT_EQ(ft.hits.size(), plain.hits.size());
  for (std::size_t k = 0; k < ft.hits.size(); ++k) {
    QueryHit h = ft.hits[k];
    h.worker = plain.hits[k].worker;  // the serving slave may differ
    EXPECT_EQ(h, plain.hits[k]) << k;
  }
}

}  // namespace
