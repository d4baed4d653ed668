#include "rck/rckskel/skeletons.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <set>

#include "rck/scc/runtime.hpp"

namespace rck::rckskel {
namespace {

using bio::Bytes;
using bio::WireReader;
using bio::WireWriter;

/// Worker used across tests: reads a u32 n, charges n microseconds, returns
/// 2*n.
Bytes doubling_worker(rcce::Comm& comm, const Bytes& payload) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  comm.charge_time(static_cast<noc::SimTime>(n) * noc::kPsPerUs);
  WireWriter w;
  w.u32(2 * n);
  return w.take();
}

std::vector<Job> numbered_jobs(std::uint32_t count, std::uint64_t id_base = 0) {
  std::vector<Job> jobs;
  for (std::uint32_t k = 0; k < count; ++k) {
    Job j;
    j.id = id_base + k;
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

TEST(Farm, AllJobsProcessedOnce) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  rt.run(5, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      const std::vector<int> slaves{1, 2, 3, 4};
      const Task task = Task::make_par(slaves, numbered_jobs(20));
      results = farm(comm, task);
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  ASSERT_EQ(results.size(), 20u);
  std::set<std::uint64_t> ids;
  for (const JobResult& r : results) {
    ids.insert(r.id);
    EXPECT_EQ(result_value(r), 2 * (static_cast<std::uint32_t>(r.id) + 1));
    EXPECT_GE(r.worker, 1);
    EXPECT_LE(r.worker, 4);
  }
  EXPECT_EQ(ids.size(), 20u);  // no duplicates, none missing
}

TEST(Farm, UsesAllSlaves) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::set<int> workers;
  rt.run(5, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      for (const JobResult& r : farm(comm, Task::make_par({1, 2, 3, 4}, numbered_jobs(40))))
        workers.insert(r.worker);
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  EXPECT_EQ(workers.size(), 4u);
}

TEST(Farm, MoreSlavesThanJobs) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::size_t count = 0;
  rt.run(7, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      count = farm(comm, Task::make_par({1, 2, 3, 4, 5, 6}, numbered_jobs(2))).size();
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  EXPECT_EQ(count, 2u);  // idle slaves still get TERMINATE and exit cleanly
}

// The plain farm assumes a reliable master; an orphaned slave must fail
// loudly (classified by whether the master is dead or just silent) instead
// of hanging the simulation in a blocking recv forever.
TEST(Farm, OrphanedSlaveRaisesFaultStallWhenMasterCrashed) {
  scc::RuntimeConfig cfg;
  cfg.faults.crashes.push_back({0, 1 * noc::kPsPerMs});
  scc::SpmdRuntime rt(cfg);
  FarmOptions opts;
  opts.slave_idle_timeout = 5 * noc::kPsPerMs;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          comm.charge_time(10 * noc::kPsPerMs);  // dies at 1ms
                        else
                          farm_slave(comm, 0, doubling_worker, opts);
                      }),
               scc::FaultStallError);
}

TEST(Farm, OrphanedSlaveRaisesDeadlockWhenMasterIsAliveButSilent) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  FarmOptions opts;
  opts.slave_idle_timeout = 5 * noc::kPsPerMs;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          comm.charge_time(100 * noc::kPsPerMs);  // never farms
                        else
                          farm_slave(comm, 0, doubling_worker, opts);
                      }),
               scc::DeadlockError);
}

TEST(Farm, ZeroSlaveIdleTimeoutRejected) {
  // A zero window makes every timed receive return at once: the slave would
  // give up on a live master before its first job could arrive.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  FarmOptions opts;
  opts.slave_idle_timeout = 0;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          (void)farm(comm, Task::make_par({1}, numbered_jobs(2)));
                        else
                          farm_slave(comm, 0, doubling_worker, opts);
                      }),
               SkelError);
}

TEST(Farm, SingleSlave) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::size_t count = 0;
  rt.run(2, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0)
      count = farm(comm, Task::make_par({1}, numbered_jobs(5))).size();
    else
      farm_slave(comm, 0, doubling_worker);
  });
  EXPECT_EQ(count, 5u);
}

TEST(Farm, DynamicDispatchBalancesHeterogeneousJobs) {
  // One huge job plus many small ones: with greedy dispatch the slave that
  // gets the huge job must not also hold small ones hostage.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  noc::SimTime makespan = 0;
  rt.run(3, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      std::vector<Job> jobs;
      {
        Job big;
        big.id = 0;
        WireWriter w;
        w.u32(10000);  // 10 ms
        big.payload = w.take();
        jobs.push_back(std::move(big));
      }
      for (int k = 0; k < 10; ++k) {
        Job small;
        small.id = static_cast<std::uint64_t>(k + 1);
        WireWriter w;
        w.u32(1000);  // 1 ms each
        small.payload = w.take();
        jobs.push_back(std::move(small));
      }
      farm(comm, Task::make_par({1, 2}, std::move(jobs)));
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
    makespan = std::max(makespan, ctx.now());
  });
  // Ideal: slave A runs the 10 ms job, slave B runs 10 x 1 ms => ~10 ms.
  // Static round-robin would give ~15 ms. Allow overheads.
  EXPECT_LT(noc::to_seconds(makespan), 0.012);
}

TEST(Farm, LptOrderRunsBigJobsFirst) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<std::uint64_t> completion_order;
  rt.run(2, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      FarmOptions opts;
      opts.lpt_order = true;
      // cost hints 1..6; LPT must dispatch 6 first on the single slave.
      for (const JobResult& r :
           farm(comm, Task::make_par({1}, numbered_jobs(6)), opts))
        completion_order.push_back(r.id);
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  ASSERT_EQ(completion_order.size(), 6u);
  EXPECT_EQ(completion_order.front(), 5u);  // highest hint = id 5
  EXPECT_EQ(completion_order.back(), 0u);
}

TEST(Farm, SeqTaskPreservesOrder) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<std::uint64_t> order;
  rt.run(4, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      for (const JobResult& r : farm(comm, Task::make_seq({1, 2, 3}, numbered_jobs(9))))
        order.push_back(r.id);
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t k = 0; k < 9; ++k) EXPECT_EQ(order[k], k);
}

TEST(Farm, GroupWithUeRestrictions) {
  // Two Par children with disjoint UE sets: jobs must only run on their
  // own group's UEs (the MC-PSC partitioning mechanism).
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  rt.run(5, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      std::vector<Task> children;
      children.push_back(Task::make_par({1, 2}, numbered_jobs(8, 0)));
      children.push_back(Task::make_par({3, 4}, numbered_jobs(8, 100)));
      results = farm(comm, Task::make_group(Task::Mode::Par, {}, std::move(children)));
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  ASSERT_EQ(results.size(), 16u);
  for (const JobResult& r : results) {
    if (r.id < 100)
      EXPECT_TRUE(r.worker == 1 || r.worker == 2) << "job " << r.id;
    else
      EXPECT_TRUE(r.worker == 3 || r.worker == 4) << "job " << r.id;
  }
}

TEST(Farm, SeqGroupOrdersChildren) {
  // Seq group: all jobs of child 0 complete before any of child 1 starts.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<std::uint64_t> order;
  rt.run(3, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      std::vector<Task> children;
      children.push_back(Task::make_par({1, 2}, numbered_jobs(6, 0)));
      children.push_back(Task::make_par({1, 2}, numbered_jobs(6, 100)));
      for (const JobResult& r :
           farm(comm, Task::make_group(Task::Mode::Seq, {}, std::move(children))))
        order.push_back(r.id);
    } else {
      farm_slave(comm, 0, doubling_worker);
    }
  });
  ASSERT_EQ(order.size(), 12u);
  for (std::size_t k = 0; k < 6; ++k) EXPECT_LT(order[k], 100u);
  for (std::size_t k = 6; k < 12; ++k) EXPECT_GE(order[k], 100u);
}

TEST(Farm, MasterCannotBeSlave) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          farm(comm, Task::make_par({0, 1}, numbered_jobs(2)));
                        else
                          farm_slave(comm, 0, doubling_worker);
                      }),
               rck::rckskel::SkelError);
}

TEST(Farm, EmptyUeSetRejected) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(1,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        farm(comm, Task::make_par({}, numbered_jobs(2)));
                      }),
               rck::rckskel::SkelError);
}

// ---- Master-side protocol checks -------------------------------------------
// Scripted slaves break the farm protocol on purpose; the master must raise
// SkelProtocolError rather than accept the frame. Each script sends its
// frames and returns, so the run ends however the master fails.

/// Run `master` on rank 0 and `script` on ranks 1..slaves.
void run_scripted(int slaves, const std::function<void(rcce::Comm&)>& master,
                  const std::function<void(rcce::Comm&)>& script) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  rt.run(slaves + 1, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0)
      master(comm);
    else
      script(comm);
  });
}

void plain_master(rcce::Comm& comm, std::vector<int> slaves,
                  const FarmOptions& opts = {}) {
  (void)farm(comm, Task::make_par(std::move(slaves), numbered_jobs(4)), opts);
}

FaultTolerantFarmOptions scripted_ft_options() {
  FaultTolerantFarmOptions o;
  o.ready_timeout = 10 * noc::kPsPerMs;
  o.lease = 20 * noc::kPsPerMs;
  return o;
}

void ft_master(rcce::Comm& comm) {
  (void)farm_ft(comm, Task::make_par({1}, numbered_jobs(4)), {},
                scripted_ft_options());
}

/// Announce READY, then return the first frame the master sends.
Message ready_then_recv(rcce::Comm& comm) {
  comm.send(0, encode_ready());
  return decode_message(comm.recv(0));
}

TEST(FarmProtocol, PlainFarmRejectsSecondReady) {
  // Slave 1 announces itself twice while slave 2 is still starting up, so
  // the master's handshake sees slave 1 again before slave 2.
  EXPECT_THROW(run_scripted(
                   2, [](rcce::Comm& comm) { plain_master(comm, {1, 2}); },
                   [](rcce::Comm& comm) {
                     if (comm.ue() == 2) comm.charge_time(noc::kPsPerMs);
                     comm.send(0, encode_ready());
                     if (comm.ue() == 1) comm.send(0, encode_ready());
                   }),
               SkelProtocolError);
}

TEST(FarmProtocol, PlainFarmRejectsResultInPlaceOfReady) {
  EXPECT_THROW(run_scripted(
                   1, [](rcce::Comm& comm) { plain_master(comm, {1}); },
                   [](rcce::Comm& comm) {
                     comm.send(0, encode_result(0, Bytes{}));
                   }),
               SkelProtocolError);
}

TEST(FarmProtocol, PlainFarmRejectsReadyAnsweringJob) {
  EXPECT_THROW(run_scripted(
                   1, [](rcce::Comm& comm) { plain_master(comm, {1}); },
                   [](rcce::Comm& comm) {
                     EXPECT_EQ(ready_then_recv(comm).type, MsgType::Job);
                     comm.send(0, encode_ready());
                   }),
               SkelProtocolError);
}

TEST(FarmProtocol, PlainFarmRejectsResultAnsweringBatch) {
  FarmOptions opts;
  opts.batch = 2;
  EXPECT_THROW(run_scripted(
                   1, [&](rcce::Comm& comm) { plain_master(comm, {1}, opts); },
                   [](rcce::Comm& comm) {
                     const Message grant = ready_then_recv(comm);
                     EXPECT_EQ(grant.type, MsgType::Batch);
                     std::vector<Job> jobs;
                     decode_batch_jobs(grant.payload, jobs);
                     comm.send(0, encode_result(jobs.front().id, Bytes{}));
                   }),
               SkelProtocolError);
}

TEST(FarmProtocol, FtFarmRejectsResultForUnknownJob) {
  EXPECT_THROW(run_scripted(1, ft_master,
                            [](rcce::Comm& comm) {
                              EXPECT_EQ(ready_then_recv(comm).type, MsgType::Job);
                              comm.send(0, encode_result(999, Bytes{}));
                            }),
               SkelProtocolError);
}

TEST(FarmProtocol, FtFarmRejectsJobFromSlave) {
  EXPECT_THROW(run_scripted(1, ft_master,
                            [](rcce::Comm& comm) {
                              const Message job = ready_then_recv(comm);
                              EXPECT_EQ(job.type, MsgType::Job);
                              Job echo;
                              echo.id = job.job_id;
                              comm.send(0, encode_job(echo));
                            }),
               SkelProtocolError);
}

TEST(ParCollect, RoundTrip) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  rt.run(3, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      const std::vector<int> ues{1, 2};
      const std::vector<Job> jobs = numbered_jobs(6);
      par(comm, ues, jobs);
      results = collect(comm, ues, jobs.size());
      terminate(comm, ues);
    } else {
      FarmOptions opts;
      opts.wait_ready = false;  // par/collect have no handshake
      farm_slave(comm, 0, doubling_worker, opts);
    }
  });
  ASSERT_EQ(results.size(), 6u);
}

TEST(Seq, OneAtATime) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  rt.run(3, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      const std::vector<int> ues{1, 2};
      results = seq(comm, ues, numbered_jobs(5));
      terminate(comm, ues);
    } else {
      FarmOptions opts;
      opts.wait_ready = false;
      farm_slave(comm, 0, doubling_worker, opts);
    }
  });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(results[k].id, k);
}

TEST(TaskTree, JobCount) {
  std::vector<Task> children;
  children.push_back(Task::make_par({1}, numbered_jobs(3)));
  children.push_back(Task::make_par({2}, numbered_jobs(4)));
  Task group = Task::make_group(Task::Mode::Par, {}, std::move(children));
  group.jobs = numbered_jobs(2);
  EXPECT_EQ(group.job_count(), 9u);
}

TEST(Env, DebugLevelsAndHelpers) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  rt.run(2, [](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    Env env(comm);
    EXPECT_EQ(env.available_cores(), 2);
    EXPECT_EQ(env.is_master(), comm.ue() == 0);
    env.set_debug_level(0);
    env.log(1, "suppressed");  // must not crash; level 1 > 0
    EXPECT_EQ(env.debug_level(), 0);
  });
}

}  // namespace
}  // namespace rck::rckskel
