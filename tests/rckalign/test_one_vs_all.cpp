// One-vs-all PSC, the paper's Algorithm 1, through rck::run_query: a query
// structure against every database entry under every configured method,
// returned as ranked hit lists.
#include <gtest/gtest.h>

#include <set>

#include "rck/bio/dataset.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rck.hpp"

namespace rck {
namespace {

using rckalign::Method;

class OneVsAllTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    database_ = new std::vector<bio::Protein>(bio::build_dataset(bio::tiny_spec()));
    bio::Rng rng(0xD1CE);
    // The query is an unseen variant of family b's founder (index 3).
    query_ = new bio::Protein(bio::perturb((*database_)[3], "query", rng));
  }
  static void TearDownTestSuite() {
    delete query_;
    delete database_;
    query_ = nullptr;
    database_ = nullptr;
  }
  static RunConfig config(int slaves) {
    RunConfig cfg;
    cfg.with_slaves(slaves);
    return cfg;
  }
  static QueryResult run(const RunConfig& cfg) {
    return run_query(*database_, Query::one_vs_all(*query_), cfg);
  }
  static std::vector<bio::Protein>* database_;
  static bio::Protein* query_;
};

std::vector<bio::Protein>* OneVsAllTest::database_ = nullptr;
bio::Protein* OneVsAllTest::query_ = nullptr;

TEST_F(OneVsAllTest, EveryEntryScoredOnce) {
  const QueryResult res = run(config(3));
  EXPECT_EQ(res.hits.size(), database_->size());
  std::set<std::uint32_t> entries;
  for (const QueryHit& h : res.hits) {
    EXPECT_EQ(h.method, Method::TmAlign);
    entries.insert(h.entry);
  }
  EXPECT_EQ(entries.size(), database_->size());
}

TEST_F(OneVsAllTest, RankingIsDescendingTm) {
  const auto hits = run(config(4)).hits;
  for (std::size_t k = 1; k < hits.size(); ++k)
    EXPECT_GE(hits[k - 1].tm_query, hits[k].tm_query);
}

TEST_F(OneVsAllTest, FamilyMembersRankedFirst) {
  // tiny family b = indices 3,4,5; the query derives from index 3.
  const auto hits = run(config(4)).hits;
  std::set<std::uint32_t> top3{hits[0].entry, hits[1].entry, hits[2].entry};
  EXPECT_TRUE(top3.count(3));
  EXPECT_TRUE(top3.count(4));
  EXPECT_TRUE(top3.count(5));
  EXPECT_GT(hits[0].tm_query, 0.5);   // same fold on top
  EXPECT_LT(hits.back().tm_query, 0.5);  // unrelated folds at the bottom
}

TEST_F(OneVsAllTest, ScoresMatchDirectAlignment) {
  for (const QueryHit& h : run(config(2)).hits) {
    const core::TmAlignResult direct = core::tmalign(*query_, (*database_)[h.entry]);
    EXPECT_DOUBLE_EQ(h.tm_query, direct.tm_norm_a) << h.entry;
    EXPECT_DOUBLE_EQ(h.rmsd, direct.rmsd) << h.entry;
  }
}

TEST_F(OneVsAllTest, MultiMethodAlgorithm1) {
  RunConfig cfg = config(4);
  cfg.with_methods({Method::TmAlign, Method::GaplessRmsd});
  const auto hits = run(cfg).hits;
  // Method-major: the TM-align list, then the gapless-RMSD list.
  const std::size_t n = database_->size();
  ASSERT_EQ(hits.size(), 2 * n);
  for (std::size_t k = 0; k < hits.size(); ++k)
    EXPECT_EQ(hits[k].method, k < n ? Method::TmAlign : Method::GaplessRmsd);
  // The RMSD method's ranking is ascending rmsd.
  for (std::size_t k = n + 1; k < hits.size(); ++k)
    EXPECT_LE(hits[k - 1].rmsd, hits[k].rmsd);
  // Both criteria should put a family-b member first.
  EXPECT_GE(hits[n].entry, 3u);
  EXPECT_LE(hits[n].entry, 5u);
}

TEST_F(OneVsAllTest, MoreSlavesFaster) {
  const noc::SimTime t1 = run(config(1)).makespan;
  const noc::SimTime t4 = run(config(4)).makespan;
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t4), 2.0);
}

TEST_F(OneVsAllTest, Deterministic) {
  const QueryResult a = run(config(3));
  const QueryResult b = run(config(3));
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k)
    EXPECT_EQ(a.hits[k].entry, b.hits[k].entry);
}

TEST_F(OneVsAllTest, Validation) {
  EXPECT_THROW(run_query({}, Query::one_vs_all(*query_), config(2)), ConfigError);
  RunConfig no_methods = config(2);
  no_methods.methods.clear();
  EXPECT_THROW(run(no_methods), ConfigError);
  EXPECT_THROW(run(config(0)), ConfigError);
  EXPECT_THROW(run(config(99)), ConfigError);
}

}  // namespace
}  // namespace rck
