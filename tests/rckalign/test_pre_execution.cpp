// Kernel pre-execution: the host pool helper, the outcome table, and the
// farm drivers that run every comparison on the pool before simulating.
//
// Small inputs only: this suite is not labelled slow, so the sanitizer legs
// (TSan in particular) run the pool's threads through it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/error.hpp"
#include "rck/rckalign/host_pool.hpp"
#include "rck/rckalign/pairs.hpp"

namespace rck::rckalign {
namespace {

// ---- run_pool ---------------------------------------------------------------

/// Per-worker state that counts how many workers a pool started.
struct CountedState {
  static inline std::atomic<int> made{0};
  CountedState() { made.fetch_add(1); }
};

TEST(HostPool, EveryItemRunsExactlyOnce) {
  for (const int width : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(100);
    run_pool<int>(hits.size(), width, [&](int&, std::size_t k) { hits[k].fetch_add(1); });
    for (std::size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1) << k;
  }
}

TEST(HostPool, WidthIsCappedAtTheItemCount) {
  CountedState::made = 0;
  run_pool<CountedState>(3, 8, [](CountedState&, std::size_t) {});
  EXPECT_EQ(CountedState::made.load(), 3);
  EXPECT_EQ(pool_width(8, 3), 3u);
  EXPECT_EQ(pool_width(4, 0), 1u);
  EXPECT_GE(pool_width(0, 1000), 1u);  // 0 = hardware concurrency
}

TEST(HostPool, WidthOneRunsOnTheCallersThread) {
  CountedState::made = 0;
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  run_pool<CountedState>(50, 1, [&](CountedState&, std::size_t) {
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(CountedState::made.load(), 1);
  EXPECT_EQ(seen, std::set<std::thread::id>{caller});
}

TEST(HostPool, FirstErrorIsRethrownOnlyAfterEveryWorkerJoined) {
  // Item 0 throws once item 1 is running; item 1 is still busy then, so the
  // exception may only surface after it finishes.
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  try {
    run_pool<int>(2, 2, [&](int&, std::size_t k) {
      if (k == 0) {
        while (!started.load()) std::this_thread::yield();
        throw std::runtime_error("item 0");
      }
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      finished = true;
    });
    FAIL() << "the pool swallowed an error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 0");
    EXPECT_TRUE(finished.load());
  }
}

TEST(HostPool, LowestFailingIndexWinsAtEveryWidth) {
  for (const int width : {1, 2, 4}) {
    try {
      run_pool<int>(64, width, [](int&, std::size_t k) {
        if (k % 16 == 5) throw std::runtime_error("item " + std::to_string(k));
      });
      FAIL() << "width " << width << " swallowed an error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 5") << "width " << width;
    }
  }
}

// ---- OutcomeTable -----------------------------------------------------------

const std::vector<bio::Protein>& tiny() {
  static const std::vector<bio::Protein> data = bio::build_dataset(bio::tiny_spec());
  return data;
}

std::vector<const bio::Protein*> table_of(const std::vector<bio::Protein>& data) {
  std::vector<const bio::Protein*> t;
  for (const bio::Protein& p : data) t.push_back(&p);
  return t;
}

TEST(OutcomeTable, MatchesTheKernelAndRejectsUnknownKeys) {
  const auto structures = table_of(tiny());
  const OutcomeTable table = OutcomeTable::build(
      structures, {{2, 5, Method::TmAlign}, {5, 2, Method::SeqNw}}, 2);
  EXPECT_EQ(table.size(), 2u);
  const core::TmAlignResult solo = core::tmalign(tiny()[2], tiny()[5]);
  const PairEntry& e = table.at({2, 5, Method::TmAlign});
  EXPECT_EQ(e.tm_norm_a, solo.tm_norm_a);
  EXPECT_EQ(e.stats, solo.stats);
  EXPECT_THROW((void)table.at({5, 2, Method::TmAlign}), AlignError);
  EXPECT_THROW((void)table.at({2, 5, Method::CeAlign}), AlignError);
}

TEST(OutcomeTable, CacheServesTmAlignKeys) {
  const PairCache cache = PairCache::build(tiny(), 1);
  const auto structures = table_of(tiny());
  const OutcomeTable table = OutcomeTable::build(
      structures, {{1, 3, Method::TmAlign}, {1, 3, Method::GaplessRmsd}}, 1, &cache);
  EXPECT_EQ(table.size(), 1u);  // only the gapless RMSD ran
  EXPECT_EQ(&table.at({1, 3, Method::TmAlign}), &cache.at(1, 3));
}

// ---- drivers ------------------------------------------------------------------

TEST(PreExecution, DuplicateSpecsRunOneKernelPerDistinctComparison) {
  const auto structures = table_of(tiny());
  const std::vector<PairSpec> specs = {
      {0, 1, Method::TmAlign}, {0, 1, Method::TmAlign}, {1, 0, Method::TmAlign},
      {0, 1, Method::SeqNw},   {0, 1, Method::TmAlign}, {3, 4, Method::GaplessRmsd}};
  PairsOptions opts;
  opts.slave_count = 3;
  const PairsRun run = run_pairs(structures, specs, opts);
  EXPECT_EQ(run.kernels, 4u);
  ASSERT_EQ(run.results.size(), specs.size());
  std::set<std::uint64_t> spec_ids;
  for (const PairRow& row : run.results) {
    spec_ids.insert(row.spec);
    EXPECT_EQ(row.i, specs[row.spec].a);
    EXPECT_EQ(row.method, specs[row.spec].method);
  }
  EXPECT_EQ(spec_ids.size(), specs.size());
}

TEST(PreExecution, ShortChainRaisesCoreInvalidAtEveryWidth) {
  std::vector<bio::Protein> data(tiny().begin(), tiny().begin() + 3);
  bio::Rng rng(11);
  data.push_back(bio::make_protein("short", 4, rng));
  for (const int width : {1, 4}) {
    RckAlignOptions opts;
    opts.slave_count = 3;
    opts.runtime.host.threads = width;
    try {
      (void)run_rckalign(data, opts);
      FAIL() << "width " << width << " accepted a 4-residue chain";
    } catch (const rck::Error& e) {
      EXPECT_EQ(e.code(), "rck.core.invalid") << "width " << width;
    }
  }
}

TEST(PreExecution, UncachedTinyRunIsIdenticalAtFourThreads) {
  RckAlignOptions serial;
  serial.slave_count = 5;
  serial.runtime.obs = obs::Config::collect();
  RckAlignOptions pooled = serial;
  pooled.runtime.host.threads = 4;
  const PairsRun a = run_rckalign(tiny(), serial);
  const PairsRun b = run_rckalign(tiny(), pooled);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.core_reports, b.core_reports);
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.events, b.events);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::chrome_trace_json(*a.obs), obs::chrome_trace_json(*b.obs));
  EXPECT_EQ(a.results.size(), tiny().size() * (tiny().size() - 1) / 2);
}

}  // namespace
}  // namespace rck::rckalign
