#include "rck/rckalign/error.hpp"
#include "rck/rckalign/extensions.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rck/bio/dataset.hpp"

namespace rck::rckalign {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::tiny_spec()));
    cache_ = new PairCache(PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete dataset_;
    cache_ = nullptr;
    dataset_ = nullptr;
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* ExtensionsTest::dataset_ = nullptr;
PairCache* ExtensionsTest::cache_ = nullptr;

/// MC-PSC: the two-group multi-method run (TM-align on the first
/// `tm_slaves` slaves, gapless RMSD on the next `rmsd_slaves`).
MultiMethodRun mcpsc_run(const std::vector<bio::Protein>& dataset, int tm_slaves,
                         int rmsd_slaves, const PairCache* cache) {
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, tm_slaves}, {Method::GaplessRmsd, rmsd_slaves}};
  opts.cache = cache;
  return run_multi_method(dataset, opts);
}

TEST_F(ExtensionsTest, McPscRunsBothMethods) {
  const MultiMethodRun run = mcpsc_run(*dataset_, 3, 2, cache_);
  EXPECT_EQ(run.results[0].size(), 28u);
  EXPECT_EQ(run.results[1].size(), 28u);
  EXPECT_GT(run.makespan, 0u);
}

TEST_F(ExtensionsTest, McPscPartitionRespected) {
  // TM-align on UEs 1..3, RMSD on UEs 4..5.
  const MultiMethodRun run = mcpsc_run(*dataset_, 3, 2, cache_);
  for (const PairRow& r : run.results[0]) {
    EXPECT_GE(r.worker, 1);
    EXPECT_LE(r.worker, 3);
  }
  for (const PairRow& r : run.results[1]) {
    EXPECT_GE(r.worker, 4);
    EXPECT_LE(r.worker, 5);
  }
}

TEST_F(ExtensionsTest, McPscTmScoresMatchCache) {
  const MultiMethodRun run = mcpsc_run(*dataset_, 2, 1, cache_);
  for (const PairRow& r : run.results[0])
    EXPECT_DOUBLE_EQ(r.tm_norm_a, cache_->at(r.i, r.j).tm_norm_a);
  // RMSD rows come from the second method; rmsd must be populated.
  for (const PairRow& r : run.results[1]) EXPECT_GT(r.rmsd, 0.0);
}

TEST_F(ExtensionsTest, McPscValidation) {
  EXPECT_THROW(mcpsc_run(*dataset_, 0, 2, nullptr), rck::rckalign::AlignError);
  EXPECT_THROW(mcpsc_run(*dataset_, 40, 40, nullptr), rck::rckalign::AlignError);
}

TEST_F(ExtensionsTest, HierarchyCompletesAllPairs) {
  HierarchyOptions opts;
  opts.group_count = 2;
  opts.slave_count = 6;
  opts.cache = cache_;
  const HierarchyRun run = run_hierarchical(*dataset_, opts);
  EXPECT_EQ(run.results.size(), 28u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const PairRow& r : run.results) seen.insert({r.i, r.j});
  EXPECT_EQ(seen.size(), 28u);
}

TEST_F(ExtensionsTest, HierarchyScoresMatchCache) {
  HierarchyOptions opts;
  opts.group_count = 2;
  opts.slave_count = 4;
  opts.cache = cache_;
  const HierarchyRun run = run_hierarchical(*dataset_, opts);
  for (const PairRow& r : run.results)
    EXPECT_DOUBLE_EQ(r.tm_norm_a, cache_->at(r.i, r.j).tm_norm_a);
}

TEST_F(ExtensionsTest, HierarchyLeafWorkersOnly) {
  HierarchyOptions opts;
  opts.group_count = 2;  // sub-masters are ranks 1,2
  opts.slave_count = 6;  // leaves are ranks 3..8
  opts.cache = cache_;
  const HierarchyRun run = run_hierarchical(*dataset_, opts);
  for (const PairRow& r : run.results) {
    EXPECT_GE(r.worker, 3);
    EXPECT_LE(r.worker, 8);
  }
}

TEST_F(ExtensionsTest, HierarchyCompetitiveWithFlatFarm) {
  // Same number of leaf workers: the two-level hierarchy must be within a
  // modest factor of the flat farm (it exists to relieve the master, not to
  // speed up this small workload).
  HierarchyOptions h;
  h.group_count = 2;
  h.slave_count = 6;
  h.cache = cache_;
  const noc::SimTime hier = run_hierarchical(*dataset_, h).makespan;

  RckAlignOptions f;
  f.slave_count = 6;
  f.cache = cache_;
  const noc::SimTime flat = run_rckalign(*dataset_, f).makespan;
  EXPECT_LT(static_cast<double>(hier), 1.5 * static_cast<double>(flat));
}

TEST_F(ExtensionsTest, HierarchyValidation) {
  HierarchyOptions opts;
  opts.group_count = 0;
  EXPECT_THROW(run_hierarchical(*dataset_, opts), rck::rckalign::AlignError);
  opts.group_count = 4;
  opts.slave_count = 2;  // fewer slaves than groups
  EXPECT_THROW(run_hierarchical(*dataset_, opts), rck::rckalign::AlignError);
  opts.group_count = 10;
  opts.slave_count = 45;  // 1 + 10 + 45 > 48
  EXPECT_THROW(run_hierarchical(*dataset_, opts), rck::rckalign::AlignError);
}

TEST_F(ExtensionsTest, HierarchyDeterministic) {
  HierarchyOptions opts;
  opts.group_count = 3;
  opts.slave_count = 6;
  opts.cache = cache_;
  const HierarchyRun a = run_hierarchical(*dataset_, opts);
  const HierarchyRun b = run_hierarchical(*dataset_, opts);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.results.size(), b.results.size());
}

}  // namespace
}  // namespace rck::rckalign
