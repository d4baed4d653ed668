// rckAlign under injected faults: the fault-tolerant farm threaded through
// the all-vs-all application completes correctly despite slave crashes.
#include "rck/rckalign/app.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "rck/bio/dataset.hpp"

namespace rck::rckalign {
namespace {

class FaultAppTest : public ::testing::Test {
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
  static RckAlignOptions ft_options(int slaves) {
    RckAlignOptions o;
    o.slave_count = slaves;
    o.cache = cache_;
    o.fault_tolerant = true;
    return o;
  }
  static void expect_complete_and_correct(const PairsRun& run) {
    ASSERT_EQ(run.results.size(), 28u);  // C(8,2) pairs of the tiny dataset
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (const PairRow& r : run.results) {
      EXPECT_LT(r.i, r.j);
      seen.insert({r.i, r.j});
      const PairEntry& e = cache_->at(r.i, r.j);
      EXPECT_DOUBLE_EQ(r.tm_norm_a, e.tm_norm_a);
      EXPECT_DOUBLE_EQ(r.rmsd, e.rmsd);
    }
    EXPECT_EQ(seen.size(), 28u);
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* FaultAppTest::dataset_ = nullptr;
PairCache* FaultAppTest::cache_ = nullptr;

TEST_F(FaultAppTest, NoFaultsMatchesPlainFarm) {
  RckAlignOptions plain;
  plain.slave_count = 4;
  plain.cache = cache_;
  const PairsRun a = run_rckalign(*dataset_, plain);
  const PairsRun b = run_rckalign(*dataset_, ft_options(4));
  expect_complete_and_correct(a);
  expect_complete_and_correct(b);
  EXPECT_EQ(b.farm_report.retries, 0u);
  EXPECT_TRUE(b.farm_report.dead_ues.empty());
  // Lease bookkeeping must not change the schedule: identical makespan
  // within 1% (the CK34 shape test asserts the same at paper scale).
  const double rel = std::abs(noc::to_seconds(b.makespan) - noc::to_seconds(a.makespan)) /
                     noc::to_seconds(a.makespan);
  EXPECT_LE(rel, 0.01);
}

TEST_F(FaultAppTest, CompletesDespiteMidRunCrashes) {
  // Calibrate crash times off the no-fault makespan so they land mid-run
  // regardless of the timing model's absolute scale.
  const noc::SimTime base = run_rckalign(*dataset_, ft_options(4)).makespan;
  RckAlignOptions opts = ft_options(4);
  opts.runtime.faults.crashes.push_back({2, base / 4});
  opts.runtime.faults.crashes.push_back({4, base / 2});
  const PairsRun run = run_rckalign(*dataset_, opts);
  expect_complete_and_correct(run);
  EXPECT_EQ(run.farm_report.dead_ues.size(), 2u);
  EXPECT_GE(run.makespan, base);  // losing slaves can only slow things down
}

TEST_F(FaultAppTest, AFaultPlanRunsTheLeasedFarmWithoutFaultTolerant) {
  // run_pairs leases jobs whenever the fault plan is non-empty, whatever
  // fault_tolerant says; the plain farm would wait on the dead slave forever
  // and end in rck.scc.deadlock.
  const noc::SimTime base = run_rckalign(*dataset_, ft_options(4)).makespan;
  std::vector<const bio::Protein*> table;
  for (const bio::Protein& p : *dataset_) table.push_back(&p);
  std::vector<PairSpec> specs;
  for (const auto& [i, j] : all_pairs(dataset_->size()))
    specs.push_back(PairSpec{i, j, Method::TmAlign});
  PairsOptions opts;
  opts.slave_count = 4;
  opts.cache = cache_;
  opts.runtime.faults.crashes.push_back({2, base / 4});
  ASSERT_FALSE(opts.fault_tolerant);
  const PairsRun run = run_pairs(table, specs, opts);
  expect_complete_and_correct(run);
  EXPECT_EQ(run.farm_report.dead_ues, std::vector<int>{2});
}

TEST_F(FaultAppTest, DeterministicReplayWithFaults) {
  const noc::SimTime base = run_rckalign(*dataset_, ft_options(3)).makespan;
  RckAlignOptions opts = ft_options(3);
  opts.runtime.faults.crashes.push_back({1, base / 3});
  opts.runtime.faults.messages.push_back(
      {scc::FaultPlan::MessageFault::Kind::Corrupt, 2, 0, 3});
  const PairsRun a = run_rckalign(*dataset_, opts);
  const PairsRun b = run_rckalign(*dataset_, opts);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.farm_report == b.farm_report);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t k = 0; k < a.results.size(); ++k) {
    EXPECT_EQ(a.results[k].i, b.results[k].i);
    EXPECT_EQ(a.results[k].j, b.results[k].j);
    EXPECT_EQ(a.results[k].worker, b.results[k].worker);
  }
}

}  // namespace
}  // namespace rck::rckalign
