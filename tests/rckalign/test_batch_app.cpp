// End-to-end bit-identity of batched farm grants (RckAlignOptions::batch,
// BlockedOptions::batch, and RunConfig::batch through rck::run_query).
//
// Batching is a pure scheduling/transport change: slaves pull K jobs per
// grant and serve them job by job from the run's pre-executed outcomes, so
// every per-job score, cycle charge and observation must be bit-identical
// to the classic one-job-at-a-time farm. These tests pin that contract at
// the application layer, on top of the kernel-level identity already proven
// by tests/core/test_batch.cpp and the protocol-level tests in
// tests/rckskel/test_batch_farm.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/blocked.hpp"
#include "rck/rckalign/error.hpp"

namespace rck::rckalign {
namespace {

class BatchAppTest : public ::testing::Test {
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
  /// Live (uncached) options: the run pre-executes its own TM-aligns.
  static RckAlignOptions live(int slaves, std::size_t batch) {
    RckAlignOptions o;
    o.slave_count = slaves;
    o.cache = nullptr;
    o.batch = batch;
    return o;
  }
  static std::vector<PairRow> sorted_rows(std::vector<PairRow> rows) {
    std::sort(rows.begin(), rows.end(), [](const PairRow& a, const PairRow& b) {
      return std::pair{a.i, a.j} < std::pair{b.i, b.j};
    });
    return rows;
  }
  /// Bitwise comparison of everything a pair comparison computed. `worker`
  /// is deliberately excluded: grant packing legitimately reassigns jobs.
  static void expect_rows_identical(const std::vector<PairRow>& a,
                                    const std::vector<PairRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].i, b[k].i);
      EXPECT_EQ(a[k].j, b[k].j);
      EXPECT_EQ(a[k].tm_norm_a, b[k].tm_norm_a);  // EXPECT_EQ: exact bits
      EXPECT_EQ(a[k].tm_norm_b, b[k].tm_norm_b);
      EXPECT_EQ(a[k].rmsd, b[k].rmsd);
      EXPECT_EQ(a[k].seq_identity, b[k].seq_identity);
      EXPECT_EQ(a[k].aligned_length, b[k].aligned_length);
    }
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* BatchAppTest::dataset_ = nullptr;
PairCache* BatchAppTest::cache_ = nullptr;

TEST_F(BatchAppTest, BatchedRunMatchesUnbatchedBitwise) {
  const PairsRun solo = run_rckalign(*dataset_, live(3, 1));
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    const PairsRun batched = run_rckalign(*dataset_, live(3, k));
    expect_rows_identical(sorted_rows(solo.results), sorted_rows(batched.results));
  }
}

TEST_F(BatchAppTest, BatchingCutsMasterMessageCount) {
  // The whole point of K-job grants: fewer master round trips. With 28 jobs
  // and K=4 the master sends ~1/4 the job frames (results likewise).
  const PairsRun solo = run_rckalign(*dataset_, live(3, 1));
  const PairsRun batched = run_rckalign(*dataset_, live(3, 4));
  EXPECT_LT(batched.core_reports[0].messages_sent,
            solo.core_reports[0].messages_sent);
  EXPECT_LT(batched.core_reports[0].messages_received,
            solo.core_reports[0].messages_received);
}

TEST_F(BatchAppTest, BatchedRunDeterministic) {
  const PairsRun a = run_rckalign(*dataset_, live(4, 4));
  const PairsRun b = run_rckalign(*dataset_, live(4, 4));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t k = 0; k < a.results.size(); ++k) {
    EXPECT_EQ(a.results[k].i, b.results[k].i);
    EXPECT_EQ(a.results[k].j, b.results[k].j);
    EXPECT_EQ(a.results[k].worker, b.results[k].worker);
  }
}

TEST_F(BatchAppTest, BatchedBitIdenticalUnderHostThreads) {
  // A wider pre-execution pool must not perturb batched runs: same makespan,
  // same event count, same rows (workers included) as one host thread.
  RckAlignOptions serial = live(4, 4);
  RckAlignOptions threaded = live(4, 4);
  threaded.runtime.host.threads = 3;
  const PairsRun a = run_rckalign(*dataset_, serial);
  const PairsRun b = run_rckalign(*dataset_, threaded);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  const auto sa = sorted_rows(a.results), sb = sorted_rows(b.results);
  expect_rows_identical(sa, sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t k = 0; k < sa.size(); ++k)
    EXPECT_EQ(sa[k].worker, sb[k].worker);
}

TEST_F(BatchAppTest, CachedRunsReplaySoloInsideGrants) {
  // With a cache the slave replays each job solo inside the grant (no lane
  // packing), but grant-level transport still applies and results must not
  // change.
  RckAlignOptions cached1 = live(3, 1);
  RckAlignOptions cached4 = live(3, 4);
  cached1.cache = cache_;
  cached4.cache = cache_;
  const PairsRun a = run_rckalign(*dataset_, cached1);
  const PairsRun b = run_rckalign(*dataset_, cached4);
  expect_rows_identical(sorted_rows(a.results), sorted_rows(b.results));
}

TEST_F(BatchAppTest, BlockedBatchedMatchesUnbatched) {
  // Force several blocks so batched slaves serve multiple farm rounds
  // (wait_ready only on the first, no terminate between rounds).
  std::uint64_t total = 0;
  for (const bio::Protein& p : *dataset_) total += p.wire_size();
  BlockedOptions b1, b4;
  b1.slave_count = b4.slave_count = 3;
  b1.master_memory_bytes = b4.master_memory_bytes = total;  // ~2-3 blocks
  b4.batch = 4;
  const BlockedRun r1 = run_rckalign_blocked(*dataset_, b1);
  const BlockedRun r4 = run_rckalign_blocked(*dataset_, b4);
  ASSERT_GT(r1.blocks, 1);
  expect_rows_identical(sorted_rows(r1.results), sorted_rows(r4.results));
}

TEST_F(BatchAppTest, OneVsAllBatchedMatchesUnbatched) {
  const rck::Query query = rck::Query::one_vs_all(dataset_->front());
  const std::vector<bio::Protein> db(dataset_->begin() + 1, dataset_->end());
  rck::RunConfig c1;
  c1.with_slaves(3).with_methods({Method::TmAlign, Method::GaplessRmsd});
  rck::RunConfig c4 = c1;
  c4.with_batch(4);
  const rck::QueryResult r1 = rck::run_query(db, query, c1);
  const rck::QueryResult r4 = rck::run_query(db, query, c4);
  ASSERT_EQ(r1.hits.size(), r4.hits.size());
  for (std::size_t k = 0; k < r1.hits.size(); ++k) {
    const rck::QueryHit& a = r1.hits[k];
    const rck::QueryHit& b = r4.hits[k];
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.tm_query, b.tm_query);
    EXPECT_EQ(a.tm_entry, b.tm_entry);
    EXPECT_EQ(a.rmsd, b.rmsd);
    EXPECT_EQ(a.seq_identity, b.seq_identity);
    EXPECT_EQ(a.aligned_length, b.aligned_length);
  }
}

TEST_F(BatchAppTest, BatchValidation) {
  EXPECT_THROW(run_rckalign(*dataset_, live(3, 0)), AlignError);

  RckAlignOptions ft = live(3, 4);
  ft.fault_tolerant = true;
  EXPECT_THROW(run_rckalign(*dataset_, ft), AlignError);

  BlockedOptions bo;
  bo.slave_count = 3;
  bo.batch = 0;
  EXPECT_THROW(run_rckalign_blocked(*dataset_, bo), AlignError);

  EXPECT_THROW(rck::run_query(*dataset_, rck::Query::one_vs_all(dataset_->front()),
                              rck::RunConfig{}.with_slaves(3).with_batch(0)),
               rck::ConfigError);
}

}  // namespace
}  // namespace rck::rckalign
