// Determinism regression suite for the farm drivers' host pool.
//
// The contract under test (see DESIGN.md, "Host-parallel execution"): with
// RuntimeConfig::host.threads > 1 a driver pre-executes its comparisons on
// several host workers, but every *simulated* observable — makespan, traces,
// CoreReports, network statistics, event counts, farm bookkeeping, fault
// replays, obs bytes — must be byte-identical to a one-worker run. These
// tests run the paper's CK34 dataset end to end at several widths, with and
// without fault plans, and compare everything they can observe. Raw
// SpmdRuntime programs are pinned in test_serial_replay.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/noc/network.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

constexpr int kHostThreads = 4;  // pool width compared against one worker

// ---------------------------------------------------------------------------
// Application-level fixture: the paper's CK34 all-vs-all, end to end.

class Ck34Determinism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::ck34_spec()));
    cache_ = new rckalign::PairCache(rckalign::PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete dataset_;
    cache_ = nullptr;
    dataset_ = nullptr;
  }

  static rckalign::RckAlignOptions options(int slaves, int host_threads) {
    rckalign::RckAlignOptions o;
    o.slave_count = slaves;
    o.cache = cache_;
    o.runtime.obs = obs::Config::collect();
    o.runtime.host.threads = host_threads;
    return o;
  }

  static void expect_identical(const rckalign::PairsRun& a,
                               const rckalign::PairsRun& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.results, b.results);
    EXPECT_EQ(a.core_reports, b.core_reports);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.events, b.events);
    ASSERT_NE(a.obs, nullptr);
    ASSERT_NE(b.obs, nullptr);
    EXPECT_EQ(obs::chrome_trace_json(*a.obs), obs::chrome_trace_json(*b.obs));
    EXPECT_TRUE(a.farm_report == b.farm_report);
  }

  static std::vector<bio::Protein>* dataset_;
  static rckalign::PairCache* cache_;
};

std::vector<bio::Protein>* Ck34Determinism::dataset_ = nullptr;
rckalign::PairCache* Ck34Determinism::cache_ = nullptr;

TEST_F(Ck34Determinism, AllVsAllBitIdenticalAcrossSlaveCounts) {
  for (const int slaves : {4, 12}) {
    const auto serial = rckalign::run_rckalign(*dataset_, options(slaves, 1));
    const auto parallel =
        rckalign::run_rckalign(*dataset_, options(slaves, kHostThreads));
    expect_identical(serial, parallel);
    EXPECT_EQ(serial.results.size(), 34u * 33u / 2u);
  }
}

TEST_F(Ck34Determinism, ReplayTwiceInEachMode) {
  for (const int threads : {1, kHostThreads}) {
    const auto a = rckalign::run_rckalign(*dataset_, options(8, threads));
    const auto b = rckalign::run_rckalign(*dataset_, options(8, threads));
    expect_identical(a, b);
  }
}

TEST_F(Ck34Determinism, FaultPlanEndToEndBitIdentical) {
  // Calibrate crash times off the clean makespan so faults land mid-run.
  const noc::SimTime base =
      rckalign::run_rckalign(*dataset_, options(6, 1)).makespan;
  auto faulty = [&](int threads) {
    rckalign::RckAlignOptions o = options(6, threads);
    o.fault_tolerant = true;
    o.runtime.faults.crashes.push_back({2, base / 4});
    o.runtime.faults.crashes.push_back({5, base / 2});
    o.runtime.faults.messages.push_back(
        {FaultPlan::MessageFault::Kind::Corrupt, 3, 0, 2});
    return rckalign::run_rckalign(*dataset_, o);
  };
  const auto serial = faulty(1);
  const auto parallel = faulty(kHostThreads);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.farm_report.dead_ues.size(), 2u);
  EXPECT_EQ(serial.results.size(), 34u * 33u / 2u);
}

// Thread-count matrix: one-worker-vs-pool and replay-twice byte-identity at
// {2, 4, 8} host threads, composed with everything that constrains the
// scheduler at once — a chaos FaultPlan (timed master crash under master_ft,
// slave crash + restart, an event-indexed crash, message corruption, a DRAM
// stall) and obs collection enabled. The obs recorder bytes (Chrome trace JSON +
// metrics snapshot) are compared verbatim: any change that lets the host
// width reorder a simulated observable shows up as a byte diff here.
TEST_F(Ck34Determinism, ThreadMatrixChaosMasterFtObsBitIdentical) {
  constexpr int kSlaves = 6;

  // Calibrate fault times off the clean master-ft makespan so every fault
  // lands mid-run regardless of timing-model drift.
  auto base_opts = [&](int threads) {
    rckalign::RckAlignOptions o = options(kSlaves, threads);
    o.fault_tolerant = true;
    o.master_ft = true;
    o.runtime.obs.enable = true;
    return o;
  };
  const noc::SimTime base =
      rckalign::run_rckalign(*dataset_, base_opts(1)).makespan;

  auto chaotic = [&](int threads) {
    rckalign::RckAlignOptions o = base_opts(threads);
    o.runtime.faults.crashes.push_back({0, base / 3});  // master, mid-farm
    o.runtime.faults.crashes.push_back({3, base / 4});  // plus a slave ...
    o.runtime.faults.restarts.push_back({3, base / 2});  // ... that revives
    o.runtime.faults.event_crashes.push_back({4, 400});
    o.runtime.faults.messages.push_back(
        {FaultPlan::MessageFault::Kind::Corrupt, 2, 0, 1});
    o.runtime.faults.stalls.push_back({5, 0, base / 2, 8.0});
    return rckalign::run_rckalign(*dataset_, o);
  };

  auto obs_bytes = [](const rckalign::PairsRun& run) {
    EXPECT_NE(run.obs, nullptr);
    return std::pair<std::string, std::string>{
        obs::chrome_trace_json(*run.obs), run.obs->snapshot().to_json()};
  };

  const auto serial = chaotic(1);
  const auto serial_obs = obs_bytes(serial);
  EXPECT_EQ(serial.results.size(), 34u * 33u / 2u);
  EXPECT_TRUE(serial.core_reports.at(0).crashed);  // failover actually ran
  EXPECT_TRUE(serial.core_reports.at(4).crashed);  // event-crash fired

  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("host threads = " + std::to_string(threads));
    const auto a = chaotic(threads);
    const auto b = chaotic(threads);  // replay-twice at this width
    expect_identical(serial, a);
    expect_identical(a, b);
    EXPECT_EQ(serial_obs, obs_bytes(a));
    EXPECT_EQ(serial_obs, obs_bytes(b));
  }
}

TEST_F(Ck34Determinism, SeedSweepStaysBitIdentical) {
  // Several seeds, small scaled datasets so the sweep stays fast: the
  // determinism contract must hold regardless of the generated workload.
  for (const std::uint64_t seed : {1u, 77u, 4242u}) {
    const auto ds = bio::build_dataset(bio::scaled_spec("det", 10, seed));
    const auto cache = rckalign::PairCache::build(ds);
    rckalign::RckAlignOptions o;
    o.slave_count = 5;
    o.cache = &cache;
    o.runtime.obs = obs::Config::collect();
    const auto serial = rckalign::run_rckalign(ds, o);
    o.runtime.host.threads = kHostThreads;
    const auto parallel = rckalign::run_rckalign(ds, o);
    expect_identical(serial, parallel);
  }
}

}  // namespace
}  // namespace rck::scc
