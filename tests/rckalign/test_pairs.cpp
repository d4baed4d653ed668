// rckalign::run_pairs — the generic pair-set execution layer under every
// query shape: row/spec mapping, validation, determinism. Payload identity
// of the job builder is tested with encode_pair_jobs in test_codec.cpp.
#include "rck/rckalign/pairs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rck/bio/synthetic.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rckalign/error.hpp"

namespace rck::rckalign {
namespace {

class PairsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bio::Rng rng(0xFA57);
    structures_ = new std::vector<bio::Protein>();
    for (int i = 0; i < 4; ++i)
      structures_->push_back(
          bio::make_protein("s" + std::to_string(i), 28 + 4 * i, rng));
  }
  static void TearDownTestSuite() {
    delete structures_;
    structures_ = nullptr;
  }
  static std::vector<const bio::Protein*> table() {
    std::vector<const bio::Protein*> t;
    for (const bio::Protein& p : *structures_) t.push_back(&p);
    return t;
  }
  static PairsOptions options(int slaves) {
    PairsOptions o;
    o.slave_count = slaves;
    return o;
  }
  static std::vector<bio::Protein>* structures_;
};

std::vector<bio::Protein>* PairsTest::structures_ = nullptr;

TEST_F(PairsTest, RowsMatchDirectKernelPerSpec) {
  const std::vector<PairSpec> specs{
      {0, 1, Method::TmAlign}, {2, 3, Method::TmAlign}, {3, 0, Method::TmAlign}};
  const auto t = table();
  const PairsRun run = run_pairs(t, specs, options(3));
  ASSERT_EQ(run.results.size(), specs.size());
  for (const PairRow& row : run.results) {
    const PairSpec& s = specs[row.spec];
    EXPECT_EQ(row.i, s.a);
    EXPECT_EQ(row.j, s.b);
    EXPECT_EQ(row.method, s.method);
    // Chain `a` is the query side: tm_norm_a must be normalized by a.
    const core::TmAlignResult direct =
        core::tmalign((*structures_)[s.a], (*structures_)[s.b]);
    EXPECT_DOUBLE_EQ(row.tm_norm_a, direct.tm_norm_a) << row.spec;
    EXPECT_DOUBLE_EQ(row.tm_norm_b, direct.tm_norm_b) << row.spec;
    EXPECT_DOUBLE_EQ(row.rmsd, direct.rmsd) << row.spec;
    EXPECT_EQ(row.aligned_length,
              static_cast<std::uint32_t>(direct.aligned_length));
  }
}

TEST_F(PairsTest, DuplicateSpecsMapBackThroughSpecIndex) {
  const std::vector<PairSpec> specs{
      {0, 1, Method::TmAlign}, {0, 1, Method::TmAlign}, {0, 1, Method::TmAlign}};
  const auto t = table();
  const PairsRun run = run_pairs(t, specs, options(2));
  ASSERT_EQ(run.results.size(), 3u);
  std::set<std::uint64_t> seen;
  for (const PairRow& row : run.results) {
    seen.insert(row.spec);
    EXPECT_EQ(row.i, 0u);
    EXPECT_EQ(row.j, 1u);
  }
  EXPECT_EQ(seen.size(), 3u);  // each duplicate keeps its own identity
  EXPECT_EQ(run.results[0].tm_norm_a, run.results[1].tm_norm_a);
}

TEST_F(PairsTest, ValidatesInputsWithAlignError) {
  const auto t = table();
  const PairsOptions opts = options(2);

  const std::vector<PairSpec> out_of_range{{0, 9, Method::TmAlign}};
  EXPECT_THROW(run_pairs(t, out_of_range, opts), AlignError);

  auto holed = t;
  holed[1] = nullptr;
  const std::vector<PairSpec> uses_hole{{0, 1, Method::TmAlign}};
  EXPECT_THROW(run_pairs(holed, uses_hole, opts), AlignError);

  const std::vector<PairSpec> ok{{0, 1, Method::TmAlign}};

  PairsOptions bad_batch = opts;
  bad_batch.batch = 0;
  EXPECT_THROW(run_pairs(t, ok, bad_batch), AlignError);

  PairsOptions batched_ft = opts;
  batched_ft.batch = 2;
  batched_ft.fault_tolerant = true;
  EXPECT_THROW(run_pairs(t, ok, batched_ft), AlignError);

  // A cache must be built for this very table, and holds a < b only.
  const PairCache cache = PairCache::build(*structures_, 1);
  PairsOptions cached = opts;
  cached.cache = &cache;
  const std::vector<PairSpec> reversed{{1, 0, Method::TmAlign}};
  EXPECT_THROW(run_pairs(t, reversed, cached), AlignError);
  const std::vector<const bio::Protein*> shorter(t.begin(), t.begin() + 3);
  EXPECT_THROW(run_pairs(shorter, ok, cached), AlignError);

  // A partition must cover every slave and every spec.
  const std::vector<SlaveGroup> too_few_slaves{{1, 1}};
  EXPECT_THROW(run_pairs(t, ok, opts, too_few_slaves), AlignError);
  const std::vector<SlaveGroup> too_many_specs{{1, 1}, {1, 1}};
  EXPECT_THROW(run_pairs(t, ok, opts, too_many_specs), AlignError);
  const std::vector<SlaveGroup> empty_group{{0, 0}, {2, 1}};
  EXPECT_THROW(run_pairs(t, ok, opts, empty_group), AlignError);
}

TEST_F(PairsTest, RunsAreDeterministic) {
  const std::vector<PairSpec> specs{
      {0, 2, Method::TmAlign}, {1, 3, Method::TmAlign}, {2, 1, Method::GaplessRmsd}};
  const auto t = table();
  const PairsRun a = run_pairs(t, specs, options(3));
  const PairsRun b = run_pairs(t, specs, options(3));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.core_reports, b.core_reports);
}

TEST_F(PairsTest, BatchedGrantsAreBitIdenticalToSolo) {
  std::vector<PairSpec> specs;
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = 0; j < 4; ++j)
      if (i != j) specs.push_back({i, j, Method::TmAlign});
  const auto t = table();
  const PairsRun solo = run_pairs(t, specs, options(3));
  PairsOptions batched = options(3);
  batched.batch = 4;
  const PairsRun packed = run_pairs(t, specs, batched);
  ASSERT_EQ(solo.results.size(), packed.results.size());
  // Collection order differs under batching; compare by spec index.
  auto by_spec = [](const PairsRun& r) {
    std::vector<PairRow> rows = r.results;
    std::sort(rows.begin(), rows.end(),
              [](const PairRow& x, const PairRow& y) { return x.spec < y.spec; });
    for (PairRow& row : rows) row.worker = -1;  // scheduling may differ
    return rows;
  };
  EXPECT_EQ(by_spec(solo), by_spec(packed));
}

}  // namespace
}  // namespace rck::rckalign
