#include "rck/rckalign/error.hpp"
#include "rck/rckalign/app.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rck/bio/dataset.hpp"

namespace rck::rckalign {
namespace {

class RckAlignTest : public ::testing::Test {
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
  static RckAlignOptions options(int slaves) {
    RckAlignOptions o;
    o.slave_count = slaves;
    o.cache = cache_;
    return o;
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* RckAlignTest::dataset_ = nullptr;
PairCache* RckAlignTest::cache_ = nullptr;

TEST_F(RckAlignTest, AllPairsEnumeration) {
  const auto pairs = all_pairs(4);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(pairs.back(), (std::pair<std::uint32_t, std::uint32_t>{2, 3}));
  EXPECT_TRUE(all_pairs(1).empty());
}

TEST_F(RckAlignTest, CompletesAllPairs) {
  const PairsRun run = run_rckalign(*dataset_, options(4));
  EXPECT_EQ(run.results.size(), 28u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const PairRow& r : run.results) {
    EXPECT_LT(r.i, r.j);
    seen.insert({r.i, r.j});
  }
  EXPECT_EQ(seen.size(), 28u);
}

TEST_F(RckAlignTest, ResultsMatchCache) {
  const PairsRun run = run_rckalign(*dataset_, options(3));
  for (const PairRow& r : run.results) {
    const PairEntry& e = cache_->at(r.i, r.j);
    EXPECT_DOUBLE_EQ(r.tm_norm_a, e.tm_norm_a);
    EXPECT_DOUBLE_EQ(r.tm_norm_b, e.tm_norm_b);
    EXPECT_DOUBLE_EQ(r.rmsd, e.rmsd);
    EXPECT_EQ(r.aligned_length, e.aligned_length);
  }
}

TEST_F(RckAlignTest, NoCacheProducesSameScores) {
  // Slaves executing TM-align for real must produce identical results and
  // identical simulated time as the cached replay.
  RckAlignOptions cached = options(2);
  RckAlignOptions live = options(2);
  live.cache = nullptr;
  const PairsRun a = run_rckalign(*dataset_, cached);
  const PairsRun b = run_rckalign(*dataset_, live);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.results.size(), b.results.size());
  auto key = [](const PairRow& r) { return std::pair{r.i, r.j}; };
  auto sa = a.results, sb = b.results;
  std::sort(sa.begin(), sa.end(), [&](auto& x, auto& y) { return key(x) < key(y); });
  std::sort(sb.begin(), sb.end(), [&](auto& x, auto& y) { return key(x) < key(y); });
  for (std::size_t k = 0; k < sa.size(); ++k) {
    EXPECT_DOUBLE_EQ(sa[k].tm_norm_a, sb[k].tm_norm_a);
    EXPECT_DOUBLE_EQ(sa[k].rmsd, sb[k].rmsd);
  }
}

TEST_F(RckAlignTest, CacheOnlyServesTmAlignJobs) {
  // A PairCache holds TM-align outcomes. For every other method it must
  // change nothing: not the results, and not the cost hint that orders LPT
  // dispatch and sizes fault-tolerant leases.
  struct Case {
    Method method;
    bool fault_tolerant;
  };
  for (const Case c : {Case{Method::GaplessRmsd, false}, Case{Method::CeAlign, false},
                       Case{Method::SeqNw, false}, Case{Method::SeqNw, true}}) {
    RckAlignOptions cached = options(3);
    cached.method = c.method;
    cached.lpt = !c.fault_tolerant;
    cached.fault_tolerant = c.fault_tolerant;
    RckAlignOptions live = cached;
    live.cache = nullptr;
    const PairsRun a = run_rckalign(*dataset_, cached);
    const PairsRun b = run_rckalign(*dataset_, live);
    const int m = static_cast<int>(c.method);
    EXPECT_EQ(a.makespan, b.makespan) << "method " << m;
    EXPECT_TRUE(a.results == b.results) << "method " << m;
    EXPECT_TRUE(a.core_reports == b.core_reports) << "method " << m;
  }
}

TEST_F(RckAlignTest, MoreSlavesFaster) {
  const noc::SimTime t1 = run_rckalign(*dataset_, options(1)).makespan;
  const noc::SimTime t3 = run_rckalign(*dataset_, options(3)).makespan;
  const noc::SimTime t7 = run_rckalign(*dataset_, options(7)).makespan;
  EXPECT_GT(t1, t3);
  EXPECT_GT(t3, t7);
  // Near-linear: 3 slaves at least 2x faster than 1.
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t3), 2.0);
}

TEST_F(RckAlignTest, OneSlaveCloseToSerial) {
  // The paper observes rckAlign with 1 slave ~ serial time (2027 vs 2029 s).
  const noc::SimTime parallel1 = run_rckalign(*dataset_, options(1)).makespan;
  const noc::SimTime serial = run_serial(*dataset_, *cache_,
                                         scc::CoreTimingModel::p54c_800(),
                                         scc::default_scc());
  const double ratio = static_cast<double>(parallel1) / static_cast<double>(serial);
  EXPECT_GT(ratio, 0.98);
  EXPECT_LT(ratio, 1.05);  // only messaging overhead on top
}

TEST_F(RckAlignTest, Deterministic) {
  const PairsRun a = run_rckalign(*dataset_, options(5));
  const PairsRun b = run_rckalign(*dataset_, options(5));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t k = 0; k < a.results.size(); ++k) {
    EXPECT_EQ(a.results[k].i, b.results[k].i);
    EXPECT_EQ(a.results[k].worker, b.results[k].worker);
  }
}

TEST_F(RckAlignTest, LptNotSlowerOnHeterogeneousJobs) {
  RckAlignOptions fifo = options(4);
  RckAlignOptions lpt = options(4);
  lpt.lpt = true;
  const noc::SimTime t_fifo = run_rckalign(*dataset_, fifo).makespan;
  const noc::SimTime t_lpt = run_rckalign(*dataset_, lpt).makespan;
  // LPT is never *much* worse; typically equal or better.
  EXPECT_LT(static_cast<double>(t_lpt), 1.10 * static_cast<double>(t_fifo));
}

TEST_F(RckAlignTest, CoreReportsConsistent) {
  const PairsRun run = run_rckalign(*dataset_, options(4));
  ASSERT_EQ(run.core_reports.size(), 5u);  // master + 4 slaves
  // Master sends one job message per pair plus terminates.
  EXPECT_GE(run.core_reports[0].messages_sent, 28u + 4u);
  // Slave busy time is dominated by compute; all slaves worked.
  for (std::size_t s = 1; s <= 4; ++s)
    EXPECT_GT(run.core_reports[s].compute_cycles, 0u);
  // Makespan equals master finish (master returns last, after collecting).
  EXPECT_EQ(run.makespan, std::max_element(run.core_reports.begin(),
                                           run.core_reports.end(),
                                           [](auto& a, auto& b) {
                                             return a.finish < b.finish;
                                           })
                              ->finish);
}

TEST_F(RckAlignTest, WorkSpreadAcrossSlaves) {
  const PairsRun run = run_rckalign(*dataset_, options(4));
  std::set<int> workers;
  for (const PairRow& r : run.results) workers.insert(r.worker);
  EXPECT_EQ(workers.size(), 4u);
}

TEST_F(RckAlignTest, OptionValidation) {
  EXPECT_THROW(run_rckalign(*dataset_, options(0)), rck::rckalign::AlignError);
  EXPECT_THROW(run_rckalign(*dataset_, options(48)), rck::rckalign::AlignError);
  const std::vector<bio::Protein> one(dataset_->begin(), dataset_->begin() + 1);
  EXPECT_THROW(run_rckalign(one, options(2)), rck::rckalign::AlignError);

  // Cache for a different dataset must be rejected.
  const auto other = bio::build_dataset(bio::ck34_spec());
  RckAlignOptions o = options(2);
  EXPECT_THROW(run_rckalign(other, o), rck::rckalign::AlignError);
}

TEST_F(RckAlignTest, NetworkCarriedTheStructures) {
  const PairsRun run = run_rckalign(*dataset_, options(4));
  // Every job ships two serialized proteins; total bytes must exceed the
  // summed payload sizes.
  std::uint64_t min_bytes = 0;
  for (const auto& [i, j] : all_pairs(dataset_->size()))
    min_bytes += (*dataset_)[i].wire_size() + (*dataset_)[j].wire_size();
  EXPECT_GT(run.network.total_bytes, min_bytes);
  EXPECT_GT(run.network.messages, 2u * 28u);  // jobs + results + handshakes
}

}  // namespace
}  // namespace rck::rckalign
