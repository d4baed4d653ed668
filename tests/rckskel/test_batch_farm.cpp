// Batched-grant farm extension: BATCH/BATCHRESULT codec round trips and the
// farm(batch=K) <-> farm_slave protocol (the one slave loop serves a grant
// job by job through its per-job Worker), including interop with single-JOB
// frames, Seq-group singleton grants, and the loud-failure modes (a grant
// answered with the wrong result count, batch on the fault-tolerant farms).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckskel {
namespace {

using bio::Bytes;
using bio::WireReader;
using bio::WireWriter;

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

// ---- Codec -----------------------------------------------------------------

TEST(BatchCodec, GrantRoundTrip) {
  const std::vector<Job> jobs = numbered_jobs(3, 40);
  std::vector<const Job*> ptrs;
  for (const Job& j : jobs) ptrs.push_back(&j);

  const Message m = decode_message(encode_batch(ptrs));
  ASSERT_EQ(m.type, MsgType::Batch);
  std::vector<Job> back;
  decode_batch_jobs(m.payload, back);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(back[k].id, jobs[k].id);
    EXPECT_EQ(back[k].payload, jobs[k].payload);
    EXPECT_EQ(back[k].cost_hint, 0u);  // scheduling state does not travel
  }
}

TEST(BatchCodec, ResultRoundTrip) {
  const std::vector<Job> jobs = numbered_jobs(4, 7);
  std::vector<Bytes> payloads;
  for (const Job& j : jobs) {
    WireWriter w;
    w.u64(j.id * 2);
    payloads.push_back(w.take());
  }

  const Message m = decode_message(encode_batch_result(jobs, payloads));
  ASSERT_EQ(m.type, MsgType::BatchResult);
  std::vector<JobResult> back;
  decode_batch_results(m.payload, /*worker=*/9, back);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(back[k].id, jobs[k].id);
    EXPECT_EQ(back[k].worker, 9);
    EXPECT_EQ(back[k].payload, payloads[k]);
  }
}

TEST(BatchCodec, EmptyPayloadsSurvive) {
  std::vector<Job> jobs(2);
  jobs[0].id = 1;
  jobs[1].id = 2;  // both payloads empty
  std::vector<const Job*> ptrs{&jobs[0], &jobs[1]};
  std::vector<Job> back;
  decode_batch_jobs(decode_message(encode_batch(ptrs)).payload, back);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].payload.empty());
  EXPECT_TRUE(back[1].payload.empty());
}

TEST(BatchCodec, RejectsMalformedFrames) {
  EXPECT_THROW(encode_batch({}), bio::WireError);
  const std::vector<Job> jobs = numbered_jobs(2);
  const std::vector<Bytes> one(1);
  EXPECT_THROW(encode_batch_result(jobs, one), bio::WireError);

  // Zero-count and trailing-bytes bodies are rejected at decode time.
  std::vector<Job> sink;
  WireWriter zero;
  zero.u32(0);
  EXPECT_THROW(decode_batch_jobs(zero.take(), sink), bio::WireError);
  std::vector<const Job*> ptrs{&jobs[0]};
  Message m = decode_message(encode_batch(ptrs));
  m.payload.push_back(std::byte{0});
  EXPECT_THROW(decode_batch_jobs(m.payload, sink), bio::WireError);
  std::vector<JobResult> rsink;
  EXPECT_THROW(decode_batch_results(m.payload, 0, rsink), bio::WireError);
}

// An inflated element count must fail as rck.bio.wire before any
// allocation is sized from it (std::bad_alloc / std::length_error sit
// outside the rck::Error taxonomy).
std::string inflated_count_code(Bytes payload,
                                const std::function<void(const Bytes&)>& decode) {
  for (std::size_t k = 0; k < 4; ++k) payload[k] = std::byte{0xFF};
  try {
    decode(payload);
  } catch (const rck::Error& e) {
    return e.code();
  }
  return "decoded";
}

TEST(BatchCodec, InflatedGrantCountRaisesWireCode) {
  const std::vector<Job> jobs = numbered_jobs(3, 40);
  std::vector<const Job*> ptrs;
  for (const Job& j : jobs) ptrs.push_back(&j);
  std::vector<Job> sink;
  EXPECT_EQ(inflated_count_code(decode_message(encode_batch(ptrs)).payload,
                                [&](const Bytes& b) { decode_batch_jobs(b, sink); }),
            "rck.bio.wire");
}

TEST(BatchCodec, InflatedResultCountRaisesWireCode) {
  const std::vector<Job> jobs = numbered_jobs(2, 7);
  const std::vector<Bytes> payloads(2, Bytes(16));
  std::vector<JobResult> sink;
  EXPECT_EQ(inflated_count_code(
                decode_message(encode_batch_result(jobs, payloads)).payload,
                [&](const Bytes& b) { decode_batch_results(b, 3, sink); }),
            "rck.bio.wire");
}

// ---- Batched farm ----------------------------------------------------------

TEST(BatchFarm, AllJobsProcessedOnceWithBatchedGrants) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  FarmOptions opts;
  opts.batch = 4;
  rt.run(4, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      // 22 jobs over 3 slaves at K=4: several full grants plus ragged tails.
      results = farm(comm, Task::make_par({1, 2, 3}, numbered_jobs(22)), opts);
    } else {
      farm_slave(comm, 0, doubling_worker, opts);
    }
  });
  ASSERT_EQ(results.size(), 22u);
  std::set<std::uint64_t> ids;
  for (const JobResult& r : results) {
    ids.insert(r.id);
    EXPECT_EQ(result_value(r), 2 * (static_cast<std::uint32_t>(r.id) + 1));
  }
  EXPECT_EQ(ids.size(), 22u);
}

TEST(BatchFarm, ResultsMatchUnbatchedFarmPerJob) {
  // The same task at K=1 (classic) and K=3: identical payload per job id —
  // batching is a scheduling knob, not an observable behaviour change.
  std::map<std::uint64_t, Bytes> by_batch[2];
  const std::size_t batch_of[2] = {1, 3};
  for (int round = 0; round < 2; ++round) {
    scc::SpmdRuntime rt{scc::RuntimeConfig{}};
    FarmOptions opts;
    opts.batch = batch_of[round];
    rt.run(3, [&](scc::CoreCtx& ctx) {
      rcce::Comm comm(ctx);
      if (comm.ue() == 0) {
        for (JobResult& r :
             farm(comm, Task::make_par({1, 2}, numbered_jobs(10)), opts))
          by_batch[round][r.id] = std::move(r.payload);
      } else {
        farm_slave(comm, 0, doubling_worker, opts);
      }
    });
  }
  EXPECT_EQ(by_batch[0], by_batch[1]);
}

TEST(BatchFarm, SeqGroupsStaySingletonAndOrdered) {
  // Seq ordering must survive batching: grants to a Seq group carry one job
  // no matter how large opts.batch is.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<std::uint64_t> order;
  FarmOptions opts;
  opts.batch = 4;
  rt.run(3, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0) {
      for (const JobResult& r :
           farm(comm, Task::make_seq({1, 2}, numbered_jobs(6)), opts))
        order.push_back(r.id);
    } else {
      farm_slave(comm, 0, doubling_worker, opts);
    }
  });
  ASSERT_EQ(order.size(), 6u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BatchFarm, BatchSlaveServesClassicUnbatchedFarm) {
  // The slave loop that serves grants, under a batch=1 master: single JOB
  // frames get classic RESULT replies.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  std::vector<JobResult> results;
  rt.run(2, [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    if (comm.ue() == 0)
      results = farm(comm, Task::make_par({1}, numbered_jobs(5)));
    else
      farm_slave(comm, 0, doubling_worker);
  });
  ASSERT_EQ(results.size(), 5u);
  for (const JobResult& r : results)
    EXPECT_EQ(result_value(r), 2 * (static_cast<std::uint32_t>(r.id) + 1));
}

TEST(BatchFarm, WorkerResultCountMismatchThrows) {
  // The master checks every BATCHRESULT against its grant: a scripted slave
  // answers a 2-job grant with a 1-result reply.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  FarmOptions opts;
  opts.batch = 2;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0) {
                          farm(comm, Task::make_par({1}, numbered_jobs(2)),
                               opts);
                          return;
                        }
                        comm.send(0, encode_ready());
                        const Message grant = decode_message(comm.recv(0));
                        EXPECT_EQ(grant.type, MsgType::Batch);
                        std::vector<Job> jobs;
                        decode_batch_jobs(grant.payload, jobs);
                        EXPECT_EQ(jobs.size(), 2u);
                        jobs.resize(1);  // answer the first job only
                        const std::vector<Bytes> one(1);
                        comm.send(0, encode_batch_result(jobs, one));
                      }),
               SkelBatchError);
}

TEST(BatchFarm, ZeroBatchRejected) {
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  FarmOptions opts;
  opts.batch = 0;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          farm(comm, Task::make_par({1}, numbered_jobs(2)),
                               opts);
                        else
                          farm_slave(comm, 0, doubling_worker, opts);
                      }),
               SkelBatchError);
}

TEST(BatchFarm, FaultTolerantFarmsRejectBatching) {
  // The FT farms lease/retry individual jobs; batched grants are explicitly
  // unsupported rather than silently un-batched.
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  FarmOptions opts;
  opts.batch = 2;
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          farm_ft(comm, Task::make_par({1}, numbered_jobs(2)),
                                  opts);
                        else
                          farm_slave_ft(comm, 0, doubling_worker, opts);
                      }),
               SkelBatchError);
}

TEST(BatchFarm, BatchingReducesMasterRoundTrips) {
  // The modeled benefit: K jobs per grant means fewer master<->slave
  // exchanges. With uniform job costs the load balance is identical either
  // way (each slave ends up with the same job count), so the saved frame
  // round trips must show up as a no-worse simulated makespan. (With
  // heterogeneous costs batching can legitimately lose: coarser grants mean
  // coarser greedy balancing — that tradeoff is the caller's to weigh.)
  std::vector<Job> uniform(24);
  for (std::size_t k = 0; k < uniform.size(); ++k) {
    uniform[k].id = k;
    WireWriter w;
    w.u32(50);  // 50 us each
    uniform[k].payload = w.take();
  }
  noc::SimTime makespan[2] = {0, 0};
  const std::size_t batch_of[2] = {1, 4};
  for (int round = 0; round < 2; ++round) {
    scc::SpmdRuntime rt{scc::RuntimeConfig{}};
    FarmOptions opts;
    opts.batch = batch_of[round];
    rt.run(3, [&](scc::CoreCtx& ctx) {
      rcce::Comm comm(ctx);
      if (comm.ue() == 0) {
        (void)farm(comm, Task::make_par({1, 2}, uniform), opts);
        makespan[round] = ctx.now();
      } else {
        farm_slave(comm, 0, doubling_worker, opts);
      }
    });
  }
  EXPECT_LE(makespan[1], makespan[0]);
}

}  // namespace
}  // namespace rck::rckskel
