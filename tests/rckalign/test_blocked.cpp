#include "rck/rckalign/error.hpp"
#include "rck/rckalign/blocked.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rck/bio/dataset.hpp"

namespace rck::rckalign {
namespace {

class BlockedTest : public ::testing::Test {
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
  static std::uint64_t dataset_bytes() {
    std::uint64_t b = 0;
    for (const bio::Protein& p : *dataset_) b += p.wire_size();
    return b;
  }
  static BlockedOptions options(int slaves, std::uint64_t budget) {
    BlockedOptions o;
    o.slave_count = slaves;
    o.cache = cache_;
    o.master_memory_bytes = budget;
    return o;
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* BlockedTest::dataset_ = nullptr;
PairCache* BlockedTest::cache_ = nullptr;

TEST_F(BlockedTest, PlanDegeneratesWithoutBudget) {
  const auto blocks = plan_blocks(*dataset_, 0);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].first, 0u);
  EXPECT_EQ(blocks[0].second, dataset_->size());
}

TEST_F(BlockedTest, PlanCoversAllChainsDisjointly) {
  const auto blocks = plan_blocks(*dataset_, dataset_bytes() / 2);
  EXPECT_GE(blocks.size(), 2u);
  std::uint32_t next = 0;
  for (const auto& [begin, end] : blocks) {
    EXPECT_EQ(begin, next);
    EXPECT_GT(end, begin);
    next = end;
  }
  EXPECT_EQ(next, dataset_->size());
}

TEST_F(BlockedTest, PlanRespectsHalfBudgetPerBlock) {
  const std::uint64_t budget = dataset_bytes() / 2;
  for (const auto& [begin, end] : plan_blocks(*dataset_, budget)) {
    std::uint64_t block = 0;
    for (std::uint32_t i = begin; i < end; ++i) block += (*dataset_)[i].wire_size();
    EXPECT_LE(block, budget / 2);
  }
}

TEST_F(BlockedTest, TinyBudgetThrows) {
  EXPECT_THROW(plan_blocks(*dataset_, 10), rck::rckalign::AlignError);
}

TEST_F(BlockedTest, AllPairsExactlyOnce) {
  const BlockedRun run = run_rckalign_blocked(*dataset_, options(3, dataset_bytes() / 2));
  EXPECT_EQ(run.results.size(), 28u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const PairRow& r : run.results) {
    EXPECT_LT(r.i, r.j);
    seen.insert({r.i, r.j});
  }
  EXPECT_EQ(seen.size(), 28u);
  EXPECT_GE(run.blocks, 2);
}

TEST_F(BlockedTest, ScoresMatchUnblockedRun) {
  const BlockedRun blocked =
      run_rckalign_blocked(*dataset_, options(4, dataset_bytes() / 3));
  RckAlignOptions plain_opts;
  plain_opts.slave_count = 4;
  plain_opts.cache = cache_;
  const PairsRun plain = run_rckalign(*dataset_, plain_opts);

  auto index = [](const std::vector<PairRow>& rows) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> m;
    for (const PairRow& r : rows) m[{r.i, r.j}] = r.tm_norm_a;
    return m;
  };
  EXPECT_EQ(index(blocked.results), index(plain.results));
}

TEST_F(BlockedTest, UnlimitedBudgetLoadsDataOnce) {
  const BlockedRun run = run_rckalign_blocked(*dataset_, options(3, 0));
  EXPECT_EQ(run.blocks, 1);
  EXPECT_EQ(run.block_loads, 1u);
  EXPECT_EQ(run.bytes_loaded, dataset_bytes());
}

TEST_F(BlockedTest, TightBudgetReloadsBlocks) {
  const BlockedRun run = run_rckalign_blocked(*dataset_, options(3, dataset_bytes() / 3));
  EXPECT_GT(run.blocks, 2);
  EXPECT_GT(run.block_loads, static_cast<std::uint64_t>(run.blocks));
  EXPECT_GT(run.bytes_loaded, dataset_bytes());
}

TEST_F(BlockedTest, BlockingCostsTimeNotCorrectness) {
  const noc::SimTime plain = run_rckalign_blocked(*dataset_, options(4, 0)).makespan;
  const noc::SimTime tight =
      run_rckalign_blocked(*dataset_, options(4, dataset_bytes() / 3)).makespan;
  // Block-pair rounds add synchronization barriers; tight budget is slower.
  EXPECT_GE(tight, plain);
}

TEST_F(BlockedTest, Deterministic) {
  const BlockedRun a = run_rckalign_blocked(*dataset_, options(3, dataset_bytes() / 2));
  const BlockedRun b = run_rckalign_blocked(*dataset_, options(3, dataset_bytes() / 2));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.block_loads, b.block_loads);
}

}  // namespace
}  // namespace rck::rckalign
