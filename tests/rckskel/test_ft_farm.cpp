// Fault-tolerant FARM: leases, retries, blacklisting, checksum rejection,
// duplicate dedup, and graceful degradation under injected faults.
#include "rck/rckskel/skeletons.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "rck/scc/runtime.hpp"

namespace rck::rckskel {
namespace {

using bio::Bytes;
using bio::WireReader;
using bio::WireWriter;

// Worker that doubles a u32 after charging n milliseconds of compute —
// slow enough that mid-job crashes and lease expiries actually land mid-job.
Bytes slow_doubling_worker(rcce::Comm& comm, const Bytes& payload) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  comm.charge_time(static_cast<noc::SimTime>(n % 5 + 1) * noc::kPsPerMs);
  WireWriter w;
  w.u32(2 * n);
  return w.take();
}

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

FaultTolerantFarmOptions test_ft_options() {
  FaultTolerantFarmOptions o;
  o.ready_timeout = 10 * noc::kPsPerMs;
  o.lease = 20 * noc::kPsPerMs;
  return o;
}

struct FtRun {
  noc::SimTime makespan = 0;
  std::vector<JobResult> results;
  FarmReport report;
};

FtRun run_ft(const scc::FaultPlan& plan, std::uint32_t njobs, int nslaves,
             const FaultTolerantFarmOptions& opts) {
  scc::RuntimeConfig cfg;
  cfg.faults = plan;
  scc::SpmdRuntime rt(cfg);
  FtRun out;
  out.makespan = rt.run(nslaves + 1, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      std::vector<int> slaves;
      for (int s = 1; s <= nslaves; ++s) slaves.push_back(s);
      const Task task = Task::make_par(slaves, numbered_jobs(njobs));
      out.results = farm_ft(comm, task, {}, opts, &out.report);
    } else {
      farm_slave_ft(comm, 0, slow_doubling_worker, {}, opts);
    }
  });
  return out;
}

void expect_all_jobs_done(const FtRun& run, std::uint32_t njobs) {
  ASSERT_EQ(run.results.size(), njobs);
  std::set<std::uint64_t> ids;
  for (const JobResult& r : run.results) {
    ids.insert(r.id);
    EXPECT_EQ(result_value(r), 2 * (static_cast<std::uint32_t>(r.id) + 1));
  }
  EXPECT_EQ(ids.size(), njobs);  // every job exactly once, values correct
}

TEST(FtFarm, NoFaultsBehavesLikePlainFarm) {
  const FtRun run = run_ft({}, 20, 4, test_ft_options());
  expect_all_jobs_done(run, 20);
  EXPECT_EQ(run.report.jobs, 20u);
  EXPECT_EQ(run.report.attempts, 20u);
  EXPECT_EQ(run.report.retries, 0u);
  EXPECT_EQ(run.report.reassignments, 0u);
  EXPECT_EQ(run.report.lease_expiries, 0u);
  EXPECT_EQ(run.report.corrupt_frames, 0u);
  EXPECT_TRUE(run.report.dead_ues.empty());
  EXPECT_EQ(run.report.wasted, 0);
}

// The acceptance criterion: all jobs complete with correct results when
// k < nslaves slaves crash, across crash phases — before READY (t = 0),
// mid-job, and late (possibly after the whole farm already finished).
class FtFarmCrash : public ::testing::TestWithParam<noc::SimTime> {};

TEST_P(FtFarmCrash, AllJobsCompleteDespiteCrash) {
  scc::FaultPlan plan;
  plan.crashes.push_back({2, GetParam()});
  const FtRun run = run_ft(plan, 20, 4, test_ft_options());
  expect_all_jobs_done(run, 20);
}

INSTANTIATE_TEST_SUITE_P(CrashPhases, FtFarmCrash,
                         ::testing::Values(noc::SimTime{0},          // pre-READY
                                           2 * noc::kPsPerMs,        // mid-job
                                           8 * noc::kPsPerMs));      // mid-run

TEST(FtFarm, PreReadyCrashIsBlacklistedUpFront) {
  scc::FaultPlan plan;
  plan.crashes.push_back({2, 0});
  const FtRun run = run_ft(plan, 20, 4, test_ft_options());
  expect_all_jobs_done(run, 20);
  ASSERT_EQ(run.report.dead_ues.size(), 1u);
  EXPECT_EQ(run.report.dead_ues[0], 2);
  // Blacklisted before any dispatch: no job was ever risked on it.
  EXPECT_EQ(run.report.lease_expiries, 0u);
}

TEST(FtFarm, MidJobCrashExpiresLeaseAndReassigns) {
  scc::FaultPlan plan;
  plan.crashes.push_back({2, 2 * noc::kPsPerMs});
  const FtRun run = run_ft(plan, 20, 4, test_ft_options());
  expect_all_jobs_done(run, 20);
  ASSERT_EQ(run.report.dead_ues.size(), 1u);
  EXPECT_EQ(run.report.dead_ues[0], 2);
  EXPECT_GE(run.report.lease_expiries, 1u);
  EXPECT_GE(run.report.retries, 1u);
  EXPECT_GE(run.report.reassignments, 1u);
  EXPECT_GT(run.report.wasted, 0);
}

TEST(FtFarm, TwoOfThreeSlavesCrashStillCompletes) {
  scc::FaultPlan plan;
  plan.crashes.push_back({1, 3 * noc::kPsPerMs});
  plan.crashes.push_back({3, 5 * noc::kPsPerMs});
  const FtRun run = run_ft(plan, 15, 3, test_ft_options());
  expect_all_jobs_done(run, 15);
  EXPECT_EQ(run.report.dead_ues.size(), 2u);
  // Everything dispatched after both crashes lands on the lone survivor.
  for (const JobResult& r : run.results) EXPECT_TRUE(r.worker >= 1 && r.worker <= 3);
}

TEST(FtFarm, DroppedJobFrameIsRetriedAfterLease) {
  scc::FaultPlan plan;
  // Flow master->slave1: nth 0 is the first JOB (READY flows the other way).
  plan.messages.push_back({scc::FaultPlan::MessageFault::Kind::Drop, 0, 1, 0});
  const FtRun run = run_ft(plan, 10, 2, test_ft_options());
  expect_all_jobs_done(run, 10);
  EXPECT_GE(run.report.lease_expiries, 1u);
  EXPECT_GE(run.report.retries, 1u);
  EXPECT_TRUE(run.report.dead_ues.empty());  // the slave was never dead
}

TEST(FtFarm, CorruptedResultIsDetectedAndRetriedImmediately) {
  scc::FaultPlan plan;
  // Flow slave1->master: nth 0 is READY, nth 1 the first RESULT.
  plan.messages.push_back({scc::FaultPlan::MessageFault::Kind::Corrupt, 1, 0, 1});
  const FtRun run = run_ft(plan, 10, 2, test_ft_options());
  expect_all_jobs_done(run, 10);
  EXPECT_GE(run.report.corrupt_frames, 1u);
  EXPECT_GE(run.report.retries, 1u);
  // Checksum catches it at once: no lease had to run out.
  EXPECT_EQ(run.report.lease_expiries, 0u);
  EXPECT_TRUE(run.report.dead_ues.empty());
}

TEST(FtFarm, CorruptedReadyStillProvesLiveness) {
  scc::FaultPlan plan;
  plan.messages.push_back({scc::FaultPlan::MessageFault::Kind::Corrupt, 1, 0, 0});
  const FtRun run = run_ft(plan, 10, 2, test_ft_options());
  expect_all_jobs_done(run, 10);
  EXPECT_GE(run.report.corrupt_frames, 1u);
  EXPECT_TRUE(run.report.dead_ues.empty());
}

TEST(FtFarm, SlowSlaveProducesDedupedDuplicate) {
  FaultTolerantFarmOptions opts = test_ft_options();
  opts.lease = noc::kPsPerMs;  // shorter than every job's compute time
  const FtRun run = run_ft({}, 6, 2, opts);
  expect_all_jobs_done(run, 6);
  EXPECT_GE(run.report.lease_expiries, 1u);
  EXPECT_GE(run.report.duplicate_results, 1u);
}

TEST(FtFarm, AllSlavesDeadThrows) {
  scc::FaultPlan plan;
  plan.crashes.push_back({1, 0});
  plan.crashes.push_back({2, 0});
  scc::RuntimeConfig cfg;
  cfg.faults = plan;
  scc::SpmdRuntime rt(cfg);
  EXPECT_THROW(rt.run(3,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0) {
                          const Task task =
                              Task::make_par({1, 2}, numbered_jobs(4));
                          (void)farm_ft(comm, task, {}, test_ft_options());
                        } else {
                          farm_slave_ft(comm, 0, slow_doubling_worker, {},
                                        test_ft_options());
                        }
                      }),
               std::runtime_error);
}

TEST(FtFarm, DuplicateJobIdsRejected) {
  // Both master flavours key their job tracking by id.
  const std::function<void(rcce::Comm&, const Task&)> masters[] = {
      [](rcce::Comm& comm, const Task& task) {
        (void)farm_ft(comm, task, {}, test_ft_options());
      },
      [](rcce::Comm& comm, const Task& task) { (void)farm(comm, task); },
  };
  for (const auto& master : masters) {
    scc::SpmdRuntime rt{scc::RuntimeConfig{}};
    EXPECT_THROW(rt.run(2,
                        [&](scc::CoreCtx& ctx) {
                          rcce::Comm comm(ctx);
                          if (comm.ue() == 0) {
                            std::vector<Job> jobs = numbered_jobs(2);
                            jobs[1].id = jobs[0].id;
                            master(comm, Task::make_par({1}, std::move(jobs)));
                          }
                          // Slave exits immediately; the master throws
                          // before any protocol traffic.
                        }),
                 rck::rckskel::SkelError);
  }
}

TEST(FtFarm, ZeroMasterSilenceTimeoutRejected) {
  // A zero window makes every timed receive return at once without
  // advancing simulated time: the slave would spin on its fiber forever.
  FaultTolerantFarmOptions opts = test_ft_options();
  opts.master_silence_timeout = 0;
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 1)
                          farm_slave_ft(comm, 0, slow_doubling_worker, {}, opts);
                      }),
               SkelError);
}

TEST(FtFarm, ZeroReadyTimeoutRejected) {
  // A READY deadline that is already due would blacklist every slave before
  // it could answer; the lease master refuses it before the handshake.
  FaultTolerantFarmOptions opts = test_ft_options();
  opts.ready_timeout = 0;
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          (void)farm_ft(comm, Task::make_par({1}, numbered_jobs(2)),
                                        {}, opts);
                        else
                          farm_slave_ft(comm, 0, slow_doubling_worker, {}, opts);
                      }),
               SkelError);
}

TEST(FtFarm, CollectRejectsEmptyUeSet) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(1,
                      [](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        (void)collect(comm, {}, 1);
                      }),
               scc::SimError);
}

// Same FaultPlan, same task: bit-identical makespan, results and FarmReport.
TEST(FtFarm, DeterministicReplay) {
  scc::FaultPlan plan;
  plan.crashes.push_back({2, 2 * noc::kPsPerMs});
  plan.messages.push_back({scc::FaultPlan::MessageFault::Kind::Drop, 0, 1, 1});
  plan.messages.push_back({scc::FaultPlan::MessageFault::Kind::Corrupt, 3, 0, 2});
  const FtRun a = run_ft(plan, 20, 4, test_ft_options());
  const FtRun b = run_ft(plan, 20, 4, test_ft_options());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.report == b.report);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].id, b.results[i].id);
    EXPECT_EQ(a.results[i].worker, b.results[i].worker);
    EXPECT_EQ(a.results[i].payload, b.results[i].payload);
  }
}

}  // namespace
}  // namespace rck::rckskel
