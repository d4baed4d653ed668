// Master failover: checkpoint replication, heartbeat-timeout detection,
// standby takeover, and the no-rerun guarantee for checkpointed jobs.
//
// Topology in every test: rank 0 master, ranks 1..nslaves slaves, rank
// nslaves+1 the standby — the same layout rckalign uses for master_ft runs.
#include "rck/rckskel/skeletons.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "rck/bio/serialize.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckskel {
namespace {

using bio::Bytes;
using bio::WireReader;
using bio::WireWriter;

std::vector<Job> numbered_jobs(std::uint32_t count) {
  std::vector<Job> jobs;
  for (std::uint32_t k = 0; k < count; ++k) {
    Job j;
    j.id = k;
    WireWriter w;
    w.u32(k + 1);
    j.payload = w.take();
    j.cost_hint = k + 1;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::uint32_t result_value(const JobResult& r) {
  WireReader rd(r.payload);
  return rd.u32();
}

/// Lease options shared by master, standby and slaves.
FaultTolerantFarmOptions test_ft_options(int nslaves) {
  FaultTolerantFarmOptions o;
  o.ready_timeout = 10 * noc::kPsPerMs;
  o.lease = 20 * noc::kPsPerMs;
  o.master_silence_timeout = 10 * noc::kPsPerMs;
  o.standby_ue = nslaves + 1;
  return o;
}

MasterFtOptions test_mft_options() {
  MasterFtOptions o;
  o.checkpoint_every = 4;
  o.heartbeat_period = 2 * noc::kPsPerMs;
  o.heartbeat_timeout = 10 * noc::kPsPerMs;
  return o;
}

struct MftRun {
  noc::SimTime makespan = 0;
  std::vector<JobResult> results;     ///< master's copy (empty if it crashed)
  std::optional<std::vector<JobResult>> standby_results;  ///< set on takeover
  FarmReport master_report;
  FarmReport standby_report;
  std::vector<int> executions;  ///< per-job worker execution count

  /// Whichever side finished the farm.
  const std::vector<JobResult>& final_results() const {
    return standby_results ? *standby_results : results;
  }
  const FarmReport& final_report() const {
    return standby_results ? standby_report : master_report;
  }
};

MftRun run_mft(const scc::FaultPlan& plan, std::uint32_t njobs, int nslaves,
               const MasterFtOptions& mft = test_mft_options()) {
  const FaultTolerantFarmOptions ft = test_ft_options(nslaves);
  scc::RuntimeConfig cfg;
  cfg.faults = plan;
  scc::SpmdRuntime rt(cfg);
  MftRun out;
  // Per-job execution counters, shared across slave host threads.
  auto counters = std::make_unique<std::atomic<int>[]>(njobs);
  for (std::uint32_t k = 0; k < njobs; ++k) counters[k] = 0;
  const Worker worker = [&counters](rcce::Comm& comm, const Bytes& payload) {
    WireReader r(payload);
    const std::uint32_t n = r.u32();
    counters[n - 1].fetch_add(1, std::memory_order_relaxed);
    comm.charge_time(static_cast<noc::SimTime>(n % 5 + 1) * noc::kPsPerMs);
    WireWriter w;
    w.u32(2 * n);
    return w.take();
  };
  out.makespan = rt.run(nslaves + 2, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    std::vector<int> slaves;
    for (int s = 1; s <= nslaves; ++s) slaves.push_back(s);
    if (comm.ue() == 0) {
      const Task task = Task::make_par(slaves, numbered_jobs(njobs));
      out.results = farm_ft_master(comm, task, {}, ft, mft, &out.master_report);
    } else if (comm.ue() == nslaves + 1) {
      const Task task = Task::make_par(slaves, numbered_jobs(njobs));
      out.standby_results =
          farm_standby(comm, 0, task, {}, ft, mft, &out.standby_report);
    } else {
      farm_slave_ft(comm, 0, worker, {}, ft);
    }
  });
  out.executions.resize(njobs);
  for (std::uint32_t k = 0; k < njobs; ++k) out.executions[k] = counters[k];
  return out;
}

void expect_all_jobs_done(const std::vector<JobResult>& results,
                          std::uint32_t njobs) {
  ASSERT_EQ(results.size(), njobs);
  std::set<std::uint64_t> ids;
  for (const JobResult& r : results) {
    ids.insert(r.id);
    EXPECT_EQ(result_value(r), 2 * (static_cast<std::uint32_t>(r.id) + 1));
  }
  EXPECT_EQ(ids.size(), njobs);  // every job exactly once, values correct
}

TEST(MasterFt, CleanRunReplicatesAndTerminatesStandby) {
  const MftRun run = run_mft({}, 20, 4);
  expect_all_jobs_done(run.results, 20);
  EXPECT_FALSE(run.standby_results.has_value());  // TERMINATE, no takeover
  EXPECT_EQ(run.master_report.failovers, 0u);
  EXPECT_EQ(run.master_report.resumed_jobs, 0u);
  // Baseline + cadence + final snapshot all counted.
  EXPECT_GE(run.master_report.checkpoints, 20u / 4u);
  // No fault, no retry: every job ran exactly once.
  for (int n : run.executions) EXPECT_EQ(n, 1);
}

TEST(MasterFt, MasterMustNameAStandby) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  const FaultTolerantFarmOptions ft;  // standby_ue left at -1
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0) {
                          const Task task =
                              Task::make_par({1}, numbered_jobs(2));
                          (void)farm_ft_master(comm, task, {}, ft, {});
                        }
                      }),
               SkelError);
}

TEST(MasterFt, ZeroHeartbeatTimeoutRejected) {
  // A zero silence window would spin the standby on its fiber forever.
  MasterFtOptions mft = test_mft_options();
  mft.heartbeat_timeout = 0;
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(3,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 2) {
                          const Task task =
                              Task::make_par({1}, numbered_jobs(2));
                          (void)farm_standby(comm, 0, task, {},
                                             test_ft_options(1), mft);
                        }
                      }),
               SkelError);
}

// The tentpole acceptance criterion: a master crash at any scheduled point
// completes via standby failover with the full, correct result set.
class MasterFtCrash : public ::testing::TestWithParam<noc::SimTime> {};

TEST_P(MasterFtCrash, AllJobsCompleteViaFailover) {
  scc::FaultPlan plan;
  plan.crashes.push_back({0, GetParam()});
  const int nslaves = 4;
  const std::uint32_t njobs = 20;
  const MftRun run = run_mft(plan, njobs, nslaves);
  ASSERT_TRUE(run.standby_results.has_value());
  expect_all_jobs_done(*run.standby_results, njobs);
  EXPECT_EQ(run.standby_report.failovers, 1u);
  // Checkpointed jobs are never re-run: only jobs in flight at the crash
  // (bounded by the slave count) plus results accepted since the last
  // snapshot (bounded by the checkpoint cadence) can execute twice.
  int reruns = 0;
  for (int n : run.executions) {
    EXPECT_GE(n, 1);
    reruns += n - 1;
  }
  EXPECT_LE(reruns,
            nslaves + static_cast<int>(test_mft_options().checkpoint_every) - 1);
}

INSTANTIATE_TEST_SUITE_P(CrashPhases, MasterFtCrash,
                         ::testing::Values(noc::SimTime{0},     // pre-dispatch
                                           2 * noc::kPsPerMs,   // early
                                           8 * noc::kPsPerMs,   // mid-run
                                           12 * noc::kPsPerMs));  // late

TEST(MasterFt, EventScheduledMasterCrashFailsOver) {
  // Crash pinned to a protocol step (the K-th fired event) instead of a
  // simulated time — deterministic under both serial and parallel hosts.
  scc::FaultPlan plan;
  plan.event_crashes.push_back({0, 40});
  const MftRun run = run_mft(plan, 20, 4);
  ASSERT_TRUE(run.standby_results.has_value());
  expect_all_jobs_done(*run.standby_results, 20);
  EXPECT_EQ(run.standby_report.failovers, 1u);
}

TEST(MasterFt, LateCrashResumesFromCheckpointWithoutRerun) {
  // Checkpoint after every result: by the time the master dies mid-run, the
  // standby's snapshot carries completed jobs which must not run again.
  MasterFtOptions mft = test_mft_options();
  mft.checkpoint_every = 1;
  scc::FaultPlan plan;
  plan.crashes.push_back({0, 12 * noc::kPsPerMs});
  const MftRun run = run_mft(plan, 20, 4, mft);
  ASSERT_TRUE(run.standby_results.has_value());
  expect_all_jobs_done(*run.standby_results, 20);
  EXPECT_GT(run.standby_report.resumed_jobs, 0u);
  int reruns = 0;
  for (int n : run.executions) reruns += n - 1;
  EXPECT_LE(reruns, 4);  // only in-flight jobs, never checkpointed ones
}

TEST(MasterFt, MasterAndSlaveCrashCompose) {
  scc::FaultPlan plan;
  plan.crashes.push_back({2, 3 * noc::kPsPerMs});   // slave dies first
  plan.crashes.push_back({0, 15 * noc::kPsPerMs});  // then the master
  const MftRun run = run_mft(plan, 20, 4);
  ASSERT_TRUE(run.standby_results.has_value());
  expect_all_jobs_done(*run.standby_results, 20);
  EXPECT_EQ(run.standby_report.failovers, 1u);
  // The slave blacklist survives the failover (carried in the checkpoint or
  // re-detected by the promoted standby's liveness probe).
  bool found = false;
  for (int ue : run.standby_report.dead_ues) found |= (ue == 2);
  EXPECT_TRUE(found);
}

TEST(MasterFt, StandbyCrashLeavesMasterUnharmed) {
  // Losing the safety net must not take the farm down with it.
  scc::FaultPlan plan;
  plan.crashes.push_back({5, 5 * noc::kPsPerMs});  // the standby itself
  const MftRun run = run_mft(plan, 20, 4);
  expect_all_jobs_done(run.results, 20);
  EXPECT_EQ(run.master_report.failovers, 0u);
}

TEST(MasterFt, RestartedSlaveRejoinsTheFarm) {
  // Lease 20ms: the master blacklists the silent slave at ~22ms, then the
  // revived core (fresh READY) re-enlists via the rejoin path.
  scc::FaultPlan plan;
  plan.crashes.push_back({2, 2 * noc::kPsPerMs});
  plan.restarts.push_back({2, 30 * noc::kPsPerMs});
  const MftRun run = run_mft(plan, 20, 4);
  expect_all_jobs_done(run.results, 20);
  // The crash was observed (blacklist) even though the core later revived.
  bool found = false;
  for (int ue : run.master_report.dead_ues) found |= (ue == 2);
  EXPECT_TRUE(found);
}

// Same FaultPlan, same task: bit-identical makespan, results and report —
// the property the chaos harness replays rely on.
TEST(MasterFt, DeterministicReplayAcrossFailover) {
  scc::FaultPlan plan;
  plan.crashes.push_back({0, 10 * noc::kPsPerMs});
  plan.crashes.push_back({3, 4 * noc::kPsPerMs});
  const MftRun a = run_mft(plan, 20, 4);
  const MftRun b = run_mft(plan, 20, 4);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.final_report() == b.final_report());
  ASSERT_EQ(a.final_results().size(), b.final_results().size());
  for (std::size_t i = 0; i < a.final_results().size(); ++i) {
    EXPECT_TRUE(a.final_results()[i] == b.final_results()[i]);
  }
}

}  // namespace
}  // namespace rck::rckskel
