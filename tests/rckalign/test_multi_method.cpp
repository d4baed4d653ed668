#include <gtest/gtest.h>

#include "rck/rckalign/error.hpp"
#include "rck/bio/dataset.hpp"
#include "rck/rckalign/extensions.hpp"

namespace rck::rckalign {
namespace {

class MultiMethodTest : public ::testing::Test {
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

std::vector<bio::Protein>* MultiMethodTest::dataset_ = nullptr;
PairCache* MultiMethodTest::cache_ = nullptr;

TEST_F(MultiMethodTest, ThreeMethodsAtOnce) {
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 3}, {Method::CeAlign, 2}, {Method::GaplessRmsd, 1}};
  opts.cache = cache_;
  const MultiMethodRun run = run_multi_method(*dataset_, opts);
  ASSERT_EQ(run.results.size(), 3u);
  for (const auto& group : run.results) EXPECT_EQ(group.size(), 28u);
  EXPECT_GT(run.makespan, 0u);
}

TEST_F(MultiMethodTest, GroupsKeepTheirCores) {
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 2}, {Method::CeAlign, 2}};
  opts.cache = cache_;
  const MultiMethodRun run = run_multi_method(*dataset_, opts);
  for (const PairRow& r : run.results[0]) {
    EXPECT_GE(r.worker, 1);
    EXPECT_LE(r.worker, 2);
  }
  for (const PairRow& r : run.results[1]) {
    EXPECT_GE(r.worker, 3);
    EXPECT_LE(r.worker, 4);
  }
}

TEST_F(MultiMethodTest, MethodsAgreeOnFamilies) {
  // TM-align and CE should both separate family a (0-2) from family b (3-5).
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 2}, {Method::CeAlign, 2}};
  opts.cache = cache_;
  const MultiMethodRun run = run_multi_method(*dataset_, opts);
  auto score = [](const std::vector<PairRow>& rows, std::uint32_t i, std::uint32_t j) {
    for (const PairRow& r : rows)
      if ((r.i == i && r.j == j) || (r.i == j && r.j == i))
        return std::max(r.tm_norm_a, r.tm_norm_b);
    ADD_FAILURE() << "pair missing";
    return 0.0;
  };
  for (const auto& rows : run.results) {
    EXPECT_GT(score(rows, 0, 1), score(rows, 0, 3));
    EXPECT_GT(score(rows, 3, 4), score(rows, 2, 6));
  }
}

TEST_F(MultiMethodTest, MatchesDedicatedMcPsc) {
  // The 2-group special case is MC-PSC. Its makespan and row counts were
  // recorded from the dedicated two-method driver it replaced.
  MultiMethodOptions general;
  general.groups = {{Method::TmAlign, 3}, {Method::GaplessRmsd, 2}};
  general.cache = cache_;
  const MultiMethodRun a = run_multi_method(*dataset_, general);

  EXPECT_EQ(a.makespan, 9265348893250u);
  ASSERT_EQ(a.results.size(), 2u);
  EXPECT_EQ(a.results[0].size(), 28u);
  EXPECT_EQ(a.results[1].size(), 28u);
}

TEST_F(MultiMethodTest, SequenceFilterMethod) {
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 2}, {Method::SeqNw, 1}};
  opts.cache = cache_;
  const MultiMethodRun run = run_multi_method(*dataset_, opts);
  ASSERT_EQ(run.results.size(), 2u);
  ASSERT_EQ(run.results[1].size(), 28u);
  // The sequence filter agrees with structure on the tiny families:
  // within-family identity >> cross-family identity (perturb mutates ~8%).
  double fam = 0, cross = 0;
  int nf = 0, nc = 0;
  auto family = [](std::uint32_t idx) { return idx < 3 ? 0 : idx < 6 ? 1 : 2; };
  for (const PairRow& r : run.results[1]) {
    if (family(r.i) == family(r.j)) {
      fam += r.seq_identity;
      ++nf;
    } else {
      cross += r.seq_identity;
      ++nc;
    }
  }
  EXPECT_GT(fam / nf, 0.6);
  EXPECT_LT(cross / nc, 0.35);
}

TEST_F(MultiMethodTest, SequenceFilterIsCheapest) {
  // Per the MC-PSC scheduling premise: SeqNw charges far fewer cycles than
  // TM-align for the same pairs.
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 1}, {Method::SeqNw, 1}};
  opts.cache = cache_;
  const MultiMethodRun run = run_multi_method(*dataset_, opts);
  const std::uint64_t tm_cycles = run.core_reports[1].compute_cycles;
  const std::uint64_t seq_cycles = run.core_reports[2].compute_cycles;
  EXPECT_LT(seq_cycles, tm_cycles / 5);
}

TEST_F(MultiMethodTest, Validation) {
  MultiMethodOptions opts;
  EXPECT_THROW(run_multi_method(*dataset_, opts), rck::rckalign::AlignError);  // no groups
  opts.groups = {{Method::TmAlign, 0}};
  EXPECT_THROW(run_multi_method(*dataset_, opts), rck::rckalign::AlignError);  // empty group
  opts.groups = {{Method::TmAlign, 30}, {Method::CeAlign, 30}};
  EXPECT_THROW(run_multi_method(*dataset_, opts), rck::rckalign::AlignError);  // too big
}

TEST_F(MultiMethodTest, Deterministic) {
  MultiMethodOptions opts;
  opts.groups = {{Method::TmAlign, 2}, {Method::CeAlign, 1}};
  opts.cache = cache_;
  const MultiMethodRun a = run_multi_method(*dataset_, opts);
  const MultiMethodRun b = run_multi_method(*dataset_, opts);
  EXPECT_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace rck::rckalign
