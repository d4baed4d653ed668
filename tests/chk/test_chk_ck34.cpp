// PR 5 acceptance on the paper's CK34 workload: a chk-enabled run is
// bit-identical to a chk-disabled one — same simulated cycles, same
// alignment results, same observability bytes — and finds zero races in the
// shipped protocol stack.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rck.hpp"

namespace {

using namespace rck;

constexpr int kSlaves = 12;

class ChkCk34 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::ck34_spec()));
    cache_ = new rckalign::PairCache(rckalign::PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    cache_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static RunResult run_with(bool with_chk, std::uint64_t seed = 0,
                            bool collect = false, int host_threads = 1) {
    RunConfig cfg;
    cfg.with_slaves(kSlaves).with_cache(cache_).with_host_threads(host_threads);
    if (with_chk) cfg.with_chk();
    if (seed != 0) cfg.with_chk_seed(seed);
    if (collect) cfg.with_collect();
    return rck::run(*dataset_, cfg);
  }

  static std::vector<bio::Protein>* dataset_;
  static rckalign::PairCache* cache_;
};

std::vector<bio::Protein>* ChkCk34::dataset_ = nullptr;
rckalign::PairCache* ChkCk34::cache_ = nullptr;

TEST_F(ChkCk34, CheckerIsBitNeutralAndFindsNoRaces) {
  const RunResult plain = run_with(false);
  const RunResult checked = run_with(true);

  EXPECT_EQ(plain.chk, nullptr);
  ASSERT_NE(checked.chk, nullptr);
  EXPECT_EQ(checked.chk->stats().races, 0u);
  EXPECT_TRUE(checked.chk->reports().empty());

  // Bit-identity: cycles and alignments.
  EXPECT_EQ(plain.makespan, checked.makespan);
  EXPECT_EQ(plain.results, checked.results);
  EXPECT_EQ(plain.core_reports, checked.core_reports);
  EXPECT_EQ(plain.events, checked.events);

  // The full protocol stream was actually checked: one slice write + publish
  // + consume per farm frame, and CK34's 561 jobs move a lot of frames.
  EXPECT_GT(checked.chk->stats().mpb_writes, 2u * 561u);
  EXPECT_EQ(checked.chk->stats().mpb_writes, checked.chk->stats().mpb_reads);
  EXPECT_EQ(checked.chk->stats().mpb_writes, checked.chk->stats().flag_sets);
}

TEST_F(ChkCk34, ObsBytesAreIdenticalUnderChk) {
  const RunResult plain = run_with(false, 0, /*collect=*/true);
  const RunResult checked = run_with(true, 0, /*collect=*/true);
  ASSERT_NE(plain.obs, nullptr);
  ASSERT_NE(checked.obs, nullptr);
  ASSERT_NE(checked.chk, nullptr);
  ASSERT_EQ(checked.chk->stats().races, 0u);

  EXPECT_EQ(plain.obs->snapshot().to_json(), checked.obs->snapshot().to_json());
  EXPECT_EQ(obs::chrome_trace_json(*plain.obs),
            obs::chrome_trace_json(*checked.obs));
}

TEST_F(ChkCk34, HostParallelConfigStaysCleanAndIdentical) {
  // The host pool only pre-executes kernels, so a 4-wide config must yield
  // the same simulated results with zero races.
  const RunResult serial = run_with(true);
  const RunResult threaded = run_with(true, 0, false, /*host_threads=*/4);
  ASSERT_NE(threaded.chk, nullptr);
  EXPECT_EQ(threaded.chk->stats().races, 0u);
  EXPECT_EQ(serial.makespan, threaded.makespan);
  EXPECT_EQ(serial.results, threaded.results);
  EXPECT_EQ(serial.chk->stats(), threaded.chk->stats());
}

TEST_F(ChkCk34, FaultPlanRunStaysClean) {
  // Crash/lease-expiry/retry orderings from the FT farm are where stale
  // frames would hide; the checker must still find nothing in ours.
  const noc::SimTime base = run_with(false).makespan;
  RunConfig cfg;
  cfg.with_slaves(kSlaves).with_cache(cache_).with_chk();
  scc::FaultPlan plan;
  plan.crashes.push_back({3, base / 4});
  plan.crashes.push_back({7, base / 2});
  cfg.with_faults(plan);
  const RunResult out = rck::run(*dataset_, cfg);
  ASSERT_NE(out.chk, nullptr);
  EXPECT_EQ(out.chk->stats().races, 0u);
  EXPECT_GT(out.farm_report.reassignments, 0u);
  EXPECT_GT(out.chk->stats().notes, 0u);  // recovery annotations were seen
  EXPECT_EQ(out.results.size(), 561u);    // every pair still computed
}

TEST_F(ChkCk34, PerturbedSchedulesStayCleanAndCorrect) {
  const RunResult plain = run_with(false);
  const RunResult perturbed = run_with(true, /*seed=*/0x5cc5cc5cu);
  ASSERT_NE(perturbed.chk, nullptr);
  EXPECT_EQ(perturbed.chk->stats().races, 0u);
  // Reordering same-instant ties must not change simulated results: every
  // perturbed schedule is one the conservative DES already admits.
  EXPECT_EQ(plain.makespan, perturbed.makespan);
  EXPECT_EQ(plain.results, perturbed.results);
}

}  // namespace
