#include "rck/rckalign/error.hpp"
#include "rck/rckalign/clustering.hpp"

#include <gtest/gtest.h>

#include "rck/bio/dataset.hpp"

namespace rck::rckalign {
namespace {

class ClusteringTest : public ::testing::Test {
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

std::vector<bio::Protein>* ClusteringTest::dataset_ = nullptr;
PairCache* ClusteringTest::cache_ = nullptr;

TEST_F(ClusteringTest, RecoversTinyFamilies) {
  // tiny: families a (0-2), b (3-5), c (6-7).
  const ClusterResult r = cluster_by_tm(*cache_, 0.5);
  EXPECT_EQ(r.cluster_count, 3);
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_EQ(r.assignment[1], r.assignment[2]);
  EXPECT_EQ(r.assignment[3], r.assignment[4]);
  EXPECT_EQ(r.assignment[4], r.assignment[5]);
  EXPECT_EQ(r.assignment[6], r.assignment[7]);
  EXPECT_NE(r.assignment[0], r.assignment[3]);
  EXPECT_NE(r.assignment[0], r.assignment[6]);
  EXPECT_NE(r.assignment[3], r.assignment[6]);
}

TEST_F(ClusteringTest, ClusterIdsOrderedBySmallestMember) {
  const ClusterResult r = cluster_by_tm(*cache_, 0.5);
  EXPECT_EQ(r.assignment[0], 0);  // chain 0's cluster gets id 0
  EXPECT_EQ(r.assignment[3], 1);
  EXPECT_EQ(r.assignment[6], 2);
}

TEST_F(ClusteringTest, ThresholdExtremes) {
  // TM > 0.999: nothing merges (all chains distinct) except identical ones.
  const ClusterResult strict = cluster_by_tm(*cache_, 0.999);
  EXPECT_EQ(strict.cluster_count, 8);
  // TM > tiny epsilon: everything merges into one cluster.
  const ClusterResult loose = cluster_by_tm(*cache_, 0.01);
  EXPECT_EQ(loose.cluster_count, 1);
}

TEST_F(ClusteringTest, MergesAreMonotoneInHeight) {
  const ClusterResult r = cluster_by_tm(*cache_, 0.01);
  for (std::size_t k = 1; k < r.merges.size(); ++k)
    EXPECT_GE(r.merges[k].height, r.merges[k - 1].height - 1e-12);
  EXPECT_EQ(r.merges.size(), 7u);  // n-1 merges to a single cluster
}

TEST_F(ClusteringTest, ClustersViewConsistent) {
  const ClusterResult r = cluster_by_tm(*cache_, 0.5);
  const auto groups = r.clusters();
  ASSERT_EQ(groups.size(), static_cast<std::size_t>(r.cluster_count));
  std::size_t total = 0;
  for (const auto& g : groups) {
    total += g.size();
    for (int m : g)
      EXPECT_EQ(r.assignment[static_cast<std::size_t>(m)],
                &g - groups.data());
  }
  EXPECT_EQ(total, dataset_->size());
}

/// The row slave 1 reports for cached pair (i, j).
PairRow cached_row(const PairCache& cache, std::uint32_t i, std::uint32_t j) {
  const PairEntry& e = cache.at(i, j);
  return PairRow{.tm_norm_a = e.tm_norm_a,
                 .tm_norm_b = e.tm_norm_b,
                 .rmsd = e.rmsd,
                 .seq_identity = e.seq_identity,
                 .i = i,
                 .j = j,
                 .aligned_length = e.aligned_length,
                 .worker = 1};
}

TEST_F(ClusteringTest, RowsPathMatchesCachePath) {
  // Build rows from the cache and cluster both ways.
  std::vector<PairRow> rows;
  for (std::uint32_t j = 1; j < 8; ++j)
    for (std::uint32_t i = 0; i < j; ++i) {
      rows.push_back(cached_row(*cache_, i, j));
    }
  const ClusterResult a = cluster_by_tm(*cache_, 0.5);
  const ClusterResult b = cluster_rows(8, rows, 0.5);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST_F(ClusteringTest, MissingPairsDefaultToDistant) {
  // Only within-family pairs supplied: families still form, nothing merges
  // across (missing pairs are distance 1).
  std::vector<PairRow> rows;
  auto add = [&](std::uint32_t i, std::uint32_t j) {
    rows.push_back(cached_row(*cache_, i, j));
  };
  add(0, 1); add(0, 2); add(1, 2);
  add(3, 4); add(3, 5); add(4, 5);
  add(6, 7);
  const ClusterResult r = cluster_rows(8, rows, 0.5);
  EXPECT_EQ(r.cluster_count, 3);
}

TEST_F(ClusteringTest, BadRowIndexThrows) {
  std::vector<PairRow> rows{PairRow{.tm_norm_a = 0.9, .tm_norm_b = 0.9, .rmsd = 1.0,
                                    .seq_identity = 0.5, .i = 0, .j = 99,
                                    .aligned_length = 50, .worker = 1}};
  EXPECT_THROW(cluster_rows(8, rows, 0.5), rck::rckalign::AlignError);
}

TEST(Clustering, EmptyAndSingleton) {
  const ClusterResult empty = cluster_rows(0, {}, 0.5);
  EXPECT_EQ(empty.cluster_count, 0);
  const ClusterResult one = cluster_rows(1, {}, 0.5);
  EXPECT_EQ(one.cluster_count, 1);
  EXPECT_EQ(one.assignment, std::vector<int>{0});
}

}  // namespace
}  // namespace rck::rckalign
