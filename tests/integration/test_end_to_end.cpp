// End-to-end integration: the full stack (synthetic data -> TM-align ->
// cost cache -> SPMD simulation -> rckskel FARM -> results) on a small
// dataset, checking cross-layer consistency that no unit test can see.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "rck/bio/dataset.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/distributed.hpp"
#include "rck/rckalign/extensions.hpp"

namespace rck {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::tiny_spec()));
    cache_ = new rckalign::PairCache(rckalign::PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete dataset_;
    cache_ = nullptr;
    dataset_ = nullptr;
  }
  static std::vector<bio::Protein>* dataset_;
  static rckalign::PairCache* cache_;
};

std::vector<bio::Protein>* EndToEnd::dataset_ = nullptr;
rckalign::PairCache* EndToEnd::cache_ = nullptr;

TEST_F(EndToEnd, SimulatedResultsEqualDirectAlignment) {
  // Scores coming back over the simulated mesh must equal running TM-align
  // directly on the host — the simulator must not perturb the science.
  rckalign::RckAlignOptions opts;
  opts.slave_count = 5;
  opts.cache = cache_;
  const rckalign::PairsRun run = rckalign::run_rckalign(*dataset_, opts);
  ASSERT_EQ(run.results.size(), 28u);
  for (const rckalign::PairRow& row : run.results) {
    const core::TmAlignResult direct =
        core::tmalign((*dataset_)[row.i], (*dataset_)[row.j]);
    EXPECT_DOUBLE_EQ(row.tm_norm_a, direct.tm_norm_a) << row.i << "," << row.j;
    EXPECT_DOUBLE_EQ(row.rmsd, direct.rmsd);
  }
}

TEST_F(EndToEnd, MakespanDecomposition) {
  // makespan >= serial_compute / slaves (work conservation) and
  // makespan <= serial_compute (no slowdown from parallelism).
  const scc::CoreTimingModel model = scc::CoreTimingModel::p54c_800();
  const noc::SimTime serial_compute = model.cycles_to_time(cache_->total_cycles(model));
  for (int n : {2, 4, 7}) {
    rckalign::RckAlignOptions opts;
    opts.slave_count = n;
    opts.cache = cache_;
    const noc::SimTime t = rckalign::run_rckalign(*dataset_, opts).makespan;
    EXPECT_GE(t, serial_compute / static_cast<unsigned>(n));
    EXPECT_LE(t, serial_compute + noc::kPsPerSec);
  }
}

TEST_F(EndToEnd, SlaveComputeCyclesSumToCacheTotal) {
  rckalign::RckAlignOptions opts;
  opts.slave_count = 4;
  opts.cache = cache_;
  const rckalign::PairsRun run = rckalign::run_rckalign(*dataset_, opts);
  std::uint64_t slave_cycles = 0;
  for (std::size_t s = 1; s < run.core_reports.size(); ++s)
    slave_cycles += run.core_reports[s].compute_cycles;
  EXPECT_EQ(slave_cycles,
            cache_->total_cycles(scc::CoreTimingModel::p54c_800()));
}

TEST_F(EndToEnd, FamilyBlockStructureSurvivesTheStack) {
  // All-vs-all TM matrix from the simulated run must show families:
  // tiny = 3 families (a: 0-2, b: 3-5, c: 6-7).
  rckalign::RckAlignOptions opts;
  opts.slave_count = 3;
  opts.cache = cache_;
  const rckalign::PairsRun run = rckalign::run_rckalign(*dataset_, opts);
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> tm;
  for (const rckalign::PairRow& r : run.results)
    tm[{r.i, r.j}] = std::max(r.tm_norm_a, r.tm_norm_b);
  auto family = [](std::uint32_t idx) { return idx < 3 ? 0 : idx < 6 ? 1 : 2; };
  double min_within = 1.0, max_cross = 0.0;
  for (const auto& [key, score] : tm) {
    if (family(key.first) == family(key.second))
      min_within = std::min(min_within, score);
    else
      max_cross = std::max(max_cross, score);
  }
  EXPECT_GT(min_within, max_cross);
}

TEST_F(EndToEnd, AllOrchestrationsAgreeOnScience) {
  // Flat farm, MC-PSC (TM half) and hierarchy must produce identical
  // TM-scores for every pair — only timing differs.
  rckalign::RckAlignOptions flat;
  flat.slave_count = 6;
  flat.cache = cache_;
  const auto flat_run = rckalign::run_rckalign(*dataset_, flat);

  rckalign::MultiMethodOptions mc;
  mc.groups = {{rckalign::Method::TmAlign, 4}, {rckalign::Method::GaplessRmsd, 2}};
  mc.cache = cache_;
  const auto mc_run = rckalign::run_multi_method(*dataset_, mc);

  rckalign::HierarchyOptions h;
  h.group_count = 2;
  h.slave_count = 4;
  h.cache = cache_;
  const auto h_run = rckalign::run_hierarchical(*dataset_, h);

  auto index = [](const std::vector<rckalign::PairRow>& rows) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> m;
    for (const auto& r : rows) m[{r.i, r.j}] = r.tm_norm_a;
    return m;
  };
  const auto a = index(flat_run.results);
  const auto b = index(mc_run.results[0]);
  const auto c = index(h_run.results);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(EndToEnd, DeterministicAcrossWholeStack) {
  auto run_once = [&] {
    rckalign::RckAlignOptions opts;
    opts.slave_count = 6;
    opts.cache = cache_;
    const auto run = rckalign::run_rckalign(*dataset_, opts);
    return std::tuple{run.makespan, run.events, run.network.total_bytes,
                      run.results.size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(EndToEnd, RebuildingEverythingFromSeedsIsIdentical) {
  // Dataset seeds fully determine the simulated makespan.
  auto full_pipeline = [] {
    const auto ds = bio::build_dataset(bio::tiny_spec());
    const auto cache = rckalign::PairCache::build(ds);
    rckalign::RckAlignOptions opts;
    opts.slave_count = 4;
    opts.cache = &cache;
    return rckalign::run_rckalign(ds, opts).makespan;
  };
  EXPECT_EQ(full_pipeline(), full_pipeline());
}

}  // namespace
}  // namespace rck
