// Seeded chaos campaigns (PR 6): randomized-but-deterministic fault plans
// composing master crashes (timed and event-indexed), slave crashes and
// restarts, message drops/corruption, and DRAM stalls — driven through the
// consolidated rck:: API with master_ft on, so every campaign survives the
// death of the coordinator itself.
//
// The contract asserted per campaign:
//   * the final all-vs-all matrix (scores keyed by (i, j), worker excluded)
//     is byte-identical to the fault-free run's matrix;
//   * the same seed replays bit-identically (makespan, results, FarmReport),
//     at --host-threads 1 and N;
//   * the documented degraded-completion contract: when every slave allowed
//     to run the remaining jobs is dead, the run throws FarmFailedError
//     ("rck.skel.farm_failed") rather than returning a partial matrix.
//
// Campaign generation is a pure function of the seed (hand-rolled draws, no
// std::shuffle / distributions whose mappings vary across standard
// libraries), so a failing seed printed by CI replays everywhere.
#include "rck/rck.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/obs/sink.hpp"

namespace rck {
namespace {

using rckalign::PairCache;
using rckalign::PairRow;

/// Score matrix row with the worker rank removed: retries and failover move
/// jobs between slaves, but must never change what the pair scored.
using ScoreRow = std::tuple<std::uint32_t, std::uint32_t, double, double,
                            double, double, std::uint32_t>;

std::vector<ScoreRow> matrix_of(const RunResult& run) {
  std::vector<ScoreRow> m;
  m.reserve(run.results.size());
  for (const PairRow& r : run.results)
    m.emplace_back(r.i, r.j, r.tm_norm_a, r.tm_norm_b, r.rmsd, r.seq_identity,
                   r.aligned_length);
  std::sort(m.begin(), m.end());
  return m;
}

/// One randomized fault campaign. `horizon` is the fault-free makespan, so
/// crash/stall times land inside the run at any timing-model scale.
scc::FaultPlan make_campaign(std::uint64_t seed, int nslaves,
                             noc::SimTime horizon) {
  std::mt19937_64 rng(seed);
  scc::FaultPlan plan;
  const auto frac = [&](std::uint64_t lo_pct, std::uint64_t hi_pct) {
    const std::uint64_t pct = lo_pct + rng() % (hi_pct - lo_pct);
    return static_cast<noc::SimTime>(horizon / 100 * pct);
  };

  // The master's fate: survive, die at a simulated time, or die at the K-th
  // scheduler event (pinned to a protocol step).
  switch (rng() % 3) {
    case 1:
      plan.crashes.push_back({0, frac(5, 90)});
      break;
    case 2:
      plan.event_crashes.push_back({0, rng() % 512});
      break;
    default:
      break;
  }

  // Up to nslaves-1 slave crashes (at least one survivor keeps the
  // completion contract in force); some victims are later restarted.
  const std::size_t ncrash = rng() % static_cast<std::size_t>(nslaves);
  std::vector<int> ranks;
  for (int s = 1; s <= nslaves; ++s) ranks.push_back(s);
  for (std::size_t i = ranks.size() - 1; i > 0; --i)  // Fisher-Yates
    std::swap(ranks[i], ranks[rng() % (i + 1)]);
  for (std::size_t k = 0; k < ncrash; ++k) {
    const noc::SimTime at = frac(0, 80);
    plan.crashes.push_back({ranks[k], at});
    if (rng() % 2 == 0)
      plan.restarts.push_back({ranks[k], at + frac(10, 30)});
  }

  // Message faults on random flows touching the master or standby.
  const int standby = nslaves + 1;
  const std::size_t nmsg = rng() % 4;
  for (std::size_t k = 0; k < nmsg; ++k) {
    const int slave = 1 + static_cast<int>(rng() % nslaves);
    const bool to_master = rng() % 2 == 0;
    const int hub = rng() % 4 == 0 ? standby : 0;
    plan.messages.push_back(
        {rng() % 2 == 0 ? scc::FaultPlan::MessageFault::Kind::Drop
                        : scc::FaultPlan::MessageFault::Kind::Corrupt,
         to_master ? slave : hub, to_master ? hub : slave, rng() % 4});
  }

  // Transient DRAM stalls.
  const std::size_t nstall = rng() % 3;
  for (std::size_t k = 0; k < nstall; ++k) {
    const noc::SimTime from = frac(0, 60);
    plan.stalls.push_back({rng() % 2 == 0 ? -1
                                          : static_cast<int>(rng() % nslaves) + 1,
                           from, from + frac(10, 40),
                           1.5 + static_cast<double>(rng() % 5)});
  }
  return plan;
}

class TinyChaos : public ::testing::Test {
 protected:
  static constexpr int kSlaves = 4;

  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(
        bio::build_dataset(bio::tiny_spec()));
    cache_ = new PairCache(PairCache::build(*dataset_));
    const RunResult ref = rck::run(*dataset_, config(1));
    reference_ = new std::vector<ScoreRow>(matrix_of(ref));
    horizon_ = ref.makespan;
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete cache_;
    delete dataset_;
    reference_ = nullptr;
    cache_ = nullptr;
    dataset_ = nullptr;
  }

  static RunConfig config(int host_threads) {
    RunConfig cfg;
    cfg.with_slaves(kSlaves)
        .with_cache(cache_)
        .with_master_ft()
        .with_host_threads(host_threads);
    // Timeouts co-tuned to the tiny dataset's ~250 ms simulated jobs so a
    // campaign's recovery happens mid-run, not after it.
    cfg.ft.lease = 600 * noc::kPsPerMs;
    cfg.ft.master_silence_timeout = 300 * noc::kPsPerMs;
    cfg.mft.checkpoint_every = 4;
    cfg.mft.heartbeat_period = 50 * noc::kPsPerMs;
    cfg.mft.heartbeat_timeout = 200 * noc::kPsPerMs;
    return cfg;
  }

  static RunResult run_campaign(std::uint64_t seed, int host_threads) {
    RunConfig cfg = config(host_threads);
    cfg.with_faults(make_campaign(seed, kSlaves, horizon_));
    return rck::run(*dataset_, cfg);
  }

  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
  static std::vector<ScoreRow>* reference_;
  static noc::SimTime horizon_;
};

std::vector<bio::Protein>* TinyChaos::dataset_ = nullptr;
PairCache* TinyChaos::cache_ = nullptr;
std::vector<ScoreRow>* TinyChaos::reference_ = nullptr;
noc::SimTime TinyChaos::horizon_ = 0;

TEST_F(TinyChaos, CampaignsPreserveTheMatrix) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult run = run_campaign(seed, 1);
    EXPECT_EQ(matrix_of(run), *reference_) << "seed " << seed;
  }
}

TEST_F(TinyChaos, EverySeedReplaysBitIdentically) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const RunResult a = run_campaign(seed, 1);
    const RunResult b = run_campaign(seed, 1);
    EXPECT_EQ(a.makespan, b.makespan) << "seed " << seed;
    EXPECT_TRUE(a.farm_report == b.farm_report) << "seed " << seed;
    ASSERT_EQ(a.results.size(), b.results.size()) << "seed " << seed;
    for (std::size_t k = 0; k < a.results.size(); ++k)
      EXPECT_TRUE(a.results[k] == b.results[k])
          << "seed " << seed << " row " << k;
  }
}

TEST_F(TinyChaos, HostParallelReplayMatchesSerial) {
  for (const std::uint64_t seed : {21ull, 22ull}) {
    const RunResult serial = run_campaign(seed, 1);
    const RunResult parallel = run_campaign(seed, 4);
    EXPECT_EQ(serial.makespan, parallel.makespan) << "seed " << seed;
    EXPECT_TRUE(serial.farm_report == parallel.farm_report) << "seed " << seed;
    EXPECT_EQ(matrix_of(serial), matrix_of(parallel)) << "seed " << seed;
  }
}

TEST_F(TinyChaos, CleanMasterFtRunIsBitIdenticalAcrossSchedulers) {
  // No faults at all: the checkpoint/heartbeat machinery itself must be
  // deterministic down to the obs byte stream, at host widths 1 and 4.
  RunConfig serial_cfg = config(1);
  RunConfig parallel_cfg = config(4);
  serial_cfg.with_collect();
  parallel_cfg.with_collect();
  const RunResult a = rck::run(*dataset_, serial_cfg);
  const RunResult b = rck::run(*dataset_, parallel_cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(matrix_of(a), matrix_of(b));
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::chrome_trace_json(*a.obs), obs::chrome_trace_json(*b.obs));
  EXPECT_EQ(a.obs->snapshot().to_json(), b.obs->snapshot().to_json());
}

TEST_F(TinyChaos, AllSlavesDeadIsTheDocumentedDegradedCompletion) {
  // Past the survivable envelope the farm fails loudly (FarmFailedError,
  // "rck.skel.farm_failed") instead of returning a partial matrix — the
  // degraded-completion contract in DESIGN.md ("Master failover").
  RunConfig cfg = config(1);
  scc::FaultPlan plan;
  for (int s = 1; s <= kSlaves; ++s) plan.crashes.push_back({s, 0});
  cfg.with_faults(plan);
  try {
    (void)rck::run(*dataset_, cfg);
    FAIL() << "expected FarmFailedError";
  } catch (const rckskel::FarmFailedError& e) {
    EXPECT_EQ(e.code(), "rck.skel.farm_failed");
  }
}

// The paper-scale assertion: a CK34 all-vs-all run with the master killed
// mid-farm finishes via standby failover with a matrix byte-identical to the
// fault-free run's. Heavier than the tiny campaigns (561 pairs), so it gets
// one deliberate composition instead of a seed sweep.
class Ck34Chaos : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(
        bio::build_dataset(bio::ck34_spec()));
    cache_ = new PairCache(PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete dataset_;
    cache_ = nullptr;
    dataset_ = nullptr;
  }
  static RunConfig config() {
    RunConfig cfg;
    cfg.with_slaves(8).with_cache(cache_).with_master_ft();
    return cfg;
  }
  static std::vector<bio::Protein>* dataset_;
  static PairCache* cache_;
};

std::vector<bio::Protein>* Ck34Chaos::dataset_ = nullptr;
PairCache* Ck34Chaos::cache_ = nullptr;

TEST_F(Ck34Chaos, MasterCrashMidFarmPreservesTheMatrix) {
  const RunResult ref = rck::run(*dataset_, config());
  ASSERT_EQ(ref.results.size(), 561u);  // C(34,2)

  RunConfig cfg = config();
  scc::FaultPlan plan;
  plan.crashes.push_back({0, ref.makespan / 2});   // master, mid-farm
  plan.crashes.push_back({3, ref.makespan / 4});   // plus a slave
  cfg.with_faults(plan);
  const RunResult a = rck::run(*dataset_, cfg);
  EXPECT_EQ(a.farm_report.failovers, 1u);
  EXPECT_GT(a.farm_report.resumed_jobs, 0u);
  EXPECT_EQ(matrix_of(a), matrix_of(ref));

  // Replay-twice determinism at paper scale, a 4-wide host pool included.
  RunConfig par = cfg;
  par.with_host_threads(4);
  const RunResult b = rck::run(*dataset_, par);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.farm_report == b.farm_report);
  EXPECT_EQ(matrix_of(a), matrix_of(b));
}

}  // namespace
}  // namespace rck
