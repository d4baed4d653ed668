// rck::RunConfig validation + the consolidated rck::run() entry point, and
// the rck::Error taxonomy contract (stable codes, what() prefixes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "rck/bio/dataset.hpp"
#include "rck/bio/pdb_io.hpp"
#include "rck/bio/serialize.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/rck.hpp"

namespace {

using namespace rck;

bool has_issue(const std::vector<ConfigIssue>& issues, std::string_view field) {
  return std::any_of(issues.begin(), issues.end(), [&](const ConfigIssue& i) {
    return i.field == field;
  });
}

TEST(RunConfig, DefaultIsValid) {
  EXPECT_TRUE(RunConfig{}.validate().empty());
}

TEST(RunConfig, ChainableSettersCompose) {
  RunConfig cfg;
  cfg.with_slaves(5).with_lpt().with_host_threads(4).with_trace("t.json")
      .with_metrics("m.json").with_collect();
  EXPECT_EQ(cfg.slave_count, 5);
  EXPECT_TRUE(cfg.lpt);
  EXPECT_EQ(cfg.runtime.host.threads, 4);
  EXPECT_EQ(cfg.runtime.obs.trace_path, "t.json");
  EXPECT_EQ(cfg.runtime.obs.metrics_path, "m.json");
  EXPECT_TRUE(cfg.runtime.obs.enable);
  EXPECT_TRUE(cfg.runtime.obs.active());
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunConfig, RejectsBadSlaveCount) {
  RunConfig cfg;
  cfg.with_slaves(0);
  EXPECT_TRUE(has_issue(cfg.validate(), "slave_count"));
  cfg.with_slaves(cfg.runtime.chip.core_count());  // master no longer fits
  EXPECT_TRUE(has_issue(cfg.validate(), "slave_count"));
}

TEST(RunConfig, RejectsBadHostThreadsAndDvfs) {
  RunConfig cfg;
  cfg.with_host_threads(0);
  cfg.runtime.core_freq_scale.assign(2, 1.0);
  cfg.runtime.core_freq_scale[1] = -0.5;
  const auto issues = cfg.validate();
  EXPECT_TRUE(has_issue(issues, "runtime.host.threads"));
  EXPECT_TRUE(has_issue(issues, "runtime.core_freq_scale[1]"));
}

TEST(RunConfig, RejectsMasterCrashAndOutOfChipFaults) {
  RunConfig cfg;
  scc::FaultPlan plan;
  plan.crashes.push_back({0, 1'000'000});  // rank 0 = master
  cfg.with_faults(plan);
  EXPECT_TRUE(has_issue(cfg.validate(), "runtime.faults.crashes[0].rank"));

  plan.crashes.clear();
  plan.crashes.push_back({cfg.runtime.chip.core_count(), 1});
  cfg.with_faults(plan);
  EXPECT_TRUE(has_issue(cfg.validate(), "runtime.faults.crashes[0].rank"));
}

TEST(RunConfig, RejectsStallRanksOutsideTheChip) {
  RunConfig cfg;
  scc::FaultPlan plan;
  plan.stalls.push_back({-1, 0, 1'000'000, 4.0});  // -1 = every rank: fine
  plan.stalls.push_back({-7, 0, 1'000'000, 4.0});
  plan.stalls.push_back({cfg.runtime.chip.core_count(), 0, 1'000'000, 4.0});
  cfg.with_faults(plan);
  const auto issues = cfg.validate();
  EXPECT_FALSE(has_issue(issues, "runtime.faults.stalls[0].rank"));
  EXPECT_TRUE(has_issue(issues, "runtime.faults.stalls[1].rank"));
  EXPECT_TRUE(has_issue(issues, "runtime.faults.stalls[2].rank"));
}

TEST(RunConfig, FaultPlanValidatesFtKnobsEvenWithoutExplicitFt) {
  RunConfig cfg;
  scc::FaultPlan plan;
  plan.crashes.push_back({3, 1'000'000});
  cfg.with_faults(plan);
  cfg.ft.max_attempts = 0;
  EXPECT_TRUE(has_issue(cfg.validate(), "ft.max_attempts"));
}

TEST(RunConfig, RejectsZeroMasterSilenceTimeoutUnderTheFtFarm) {
  // A zero window returns from the FT slave's timed receive at once without
  // advancing simulated time, so the slave would poll its master forever.
  RunConfig plain;
  plain.ft.master_silence_timeout = 0;
  EXPECT_TRUE(plain.validate().empty());  // the plain farm never reads it

  RunConfig ft = plain;
  ft.with_fault_tolerance();
  EXPECT_TRUE(has_issue(ft.validate(), "ft.master_silence_timeout"));

  RunConfig mft = plain;
  mft.with_master_ft();
  EXPECT_TRUE(has_issue(mft.validate(), "ft.master_silence_timeout"));

  RunConfig faulty = plain;
  scc::FaultPlan plan;
  plan.crashes.push_back({3, 1'000'000});
  faulty.with_faults(plan);
  EXPECT_TRUE(has_issue(faulty.validate(), "ft.master_silence_timeout"));
}

TEST(RunConfig, RejectsZeroReadyTimeoutUnderTheFtFarm) {
  // A READY deadline that is already due blacklists every slave before it
  // can answer, so every such FT run would fail in the farm.
  RunConfig plain;
  plain.ft.ready_timeout = 0;
  EXPECT_TRUE(plain.validate().empty());  // the plain farm never reads it

  RunConfig ft = plain;
  ft.with_fault_tolerance();
  EXPECT_TRUE(has_issue(ft.validate(), "ft.ready_timeout"));

  RunConfig mft = plain;
  mft.with_master_ft();
  EXPECT_TRUE(has_issue(mft.validate(), "ft.ready_timeout"));

  RunConfig faulty = plain;
  scc::FaultPlan plan;
  plan.crashes.push_back({3, 1'000'000});
  faulty.with_faults(plan);
  EXPECT_TRUE(has_issue(faulty.validate(), "ft.ready_timeout"));
}

TEST(RunConfig, RejectsBadBatch) {
  RunConfig cfg;
  cfg.with_batch(0);
  EXPECT_TRUE(has_issue(cfg.validate(), "batch"));

  // Batched grants need the plain farm: the FT farms (and any fault plan,
  // which upgrades to them) lease and retry individual jobs.
  cfg.with_batch(4);
  EXPECT_TRUE(cfg.validate().empty());
  cfg.with_fault_tolerance();
  EXPECT_TRUE(has_issue(cfg.validate(), "batch"));

  RunConfig faulty;
  faulty.with_batch(4);
  scc::FaultPlan plan;
  plan.crashes.push_back({3, 1'000'000});
  faulty.with_faults(plan);
  EXPECT_TRUE(has_issue(faulty.validate(), "batch"));
}

TEST(RunConfig, ToOptionsCarriesBatch) {
  // rck::run() hands run_rckalign {cfg, method}: the batch the setter
  // stores is the batch the farm reads.
  RunConfig cfg;
  cfg.with_batch(8);
  const rckalign::RckAlignOptions opts{cfg, cfg.methods.front()};
  EXPECT_EQ(opts.batch, 8u);
}

TEST(RunConfig, RejectsEmptyMethodList) {
  RunConfig cfg;
  cfg.methods.clear();
  EXPECT_TRUE(has_issue(cfg.validate(), "methods"));
}

TEST(RunConfig, MethodSettersCompose) {
  RunConfig cfg;
  cfg.with_method(rckalign::Method::GaplessRmsd);
  ASSERT_EQ(cfg.methods.size(), 1u);
  EXPECT_EQ(cfg.methods[0], rckalign::Method::GaplessRmsd);

  cfg.with_methods({rckalign::Method::TmAlign, rckalign::Method::GaplessRmsd});
  ASSERT_EQ(cfg.methods.size(), 2u);
  EXPECT_EQ(cfg.methods[0], rckalign::Method::TmAlign);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunConfig, RejectsBadServiceLimits) {
  RunConfig cfg;
  cfg.with_queue_capacity(0);
  EXPECT_TRUE(has_issue(cfg.validate(), "service.queue_capacity"));

  RunConfig cfg2;
  cfg2.with_max_queries_per_round(0);
  EXPECT_TRUE(has_issue(cfg2.validate(), "service.max_queries_per_round"));

  RunConfig ok;
  ok.with_queue_capacity(128).with_max_queries_per_round(16).with_fail_on_shed();
  EXPECT_EQ(ok.service.queue_capacity, 128u);
  EXPECT_EQ(ok.service.max_queries_per_round, 16u);
  EXPECT_TRUE(ok.service.fail_on_shed);
  EXPECT_TRUE(ok.validate().empty());
}

TEST(RunConfig, ToPairsOptionsCarriesTheKnobs) {
  // A RunConfig is the PairsOptions that run_pairs reads; the setters write
  // its fields.
  RunConfig cfg;
  cfg.with_slaves(5).with_lpt().with_batch(4).with_host_threads(3);
  const rckalign::PairsOptions& opts = cfg;
  EXPECT_EQ(opts.slave_count, 5);
  EXPECT_TRUE(opts.lpt);
  EXPECT_EQ(opts.batch, 4u);
  EXPECT_EQ(opts.runtime.host.threads, 3);
}

TEST(RunConfig, RejectsTraceAndMetricsSharingAFile) {
  RunConfig cfg;
  cfg.with_trace("same.json").with_metrics("same.json");
  EXPECT_TRUE(has_issue(cfg.validate(), "runtime.obs.metrics_path"));
}

TEST(RunConfig, ValidatedThrowsTypedErrorListingEveryIssue) {
  RunConfig cfg;
  cfg.with_slaves(0).with_host_threads(0);
  try {
    cfg.validated();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), "rck.config.invalid");
    EXPECT_EQ(std::strncmp(e.what(), "rck.config.invalid: ", 20), 0);
    EXPECT_GE(e.issues().size(), 2u);
    EXPECT_TRUE(has_issue(e.issues(), "slave_count"));
    EXPECT_TRUE(has_issue(e.issues(), "runtime.host.threads"));
  }
}

TEST(RunConfig, ToOptionsForcesFaultToleranceUnderAFaultPlan) {
  // A non-empty fault plan runs the leased farm without
  // with_fault_tolerance(): only that farm fills in the farm report, and it
  // finishes every pair past the crashed slave.
  const std::vector<bio::Protein> dataset = bio::build_dataset(bio::tiny_spec());
  const std::size_t pairs = dataset.size() * (dataset.size() - 1) / 2;
  RunConfig cfg;
  cfg.with_slaves(3);
  const RunResult plain = rck::run(dataset, cfg);
  EXPECT_EQ(plain.farm_report.jobs, 0u);
  scc::FaultPlan plan;
  plan.crashes.push_back({2, plain.makespan / 4});
  cfg.with_faults(plan);
  ASSERT_FALSE(cfg.fault_tolerant);
  const RunResult leased = rck::run(dataset, cfg);
  EXPECT_EQ(leased.farm_report.jobs, pairs);
  EXPECT_EQ(leased.farm_report.dead_ues, std::vector<int>{2});
  EXPECT_EQ(leased.results.size(), pairs);
}

TEST(RunConfig, ToOptionsRoutesObsIntoRuntime) {
  // Obs settings live in the runtime config the farm builds its runtime
  // from, so a collecting config's run carries a recorder.
  RunConfig cfg;
  cfg.with_collect();
  EXPECT_TRUE(cfg.runtime.obs.active());
  scc::SpmdRuntime rt(cfg.runtime);
  rt.run(2, [](scc::CoreCtx&) {});
  EXPECT_NE(rt.obs(), nullptr);
}

TEST(Run, InvalidConfigThrowsBeforeSimulating) {
  const std::vector<bio::Protein> dataset;  // never touched
  RunConfig cfg;
  cfg.with_slaves(-1);
  EXPECT_THROW(rck::run(dataset, cfg), ConfigError);
}

TEST(Run, EndToEndWithCollectExposesRecorder) {
  bio::Rng rng(7);
  std::vector<bio::Protein> dataset;
  for (int i = 0; i < 4; ++i)
    dataset.push_back(bio::make_protein("p" + std::to_string(i), 24 + 3 * i, rng));

  RunConfig cfg;
  cfg.with_slaves(3).with_collect();
  const RunResult run = rck::run(dataset, cfg);
  EXPECT_EQ(run.results.size(), 6u);  // C(4,2)
  ASSERT_NE(run.obs, nullptr);

  const obs::Snapshot snap = run.obs->snapshot();
  // 6 pair comparisons executed across the slave shards.
  const auto pairs = std::find_if(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& row) { return row.name == "app.pairs"; });
  ASSERT_NE(pairs, snap.counters.end());
  EXPECT_EQ(pairs->value, 6u);
  EXPECT_EQ(pairs->per_shard[0], 0u);  // master executes no pairs

  const auto jobs = std::find_if(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& row) { return row.name == "farm.jobs"; });
  ASSERT_NE(jobs, snap.counters.end());
  EXPECT_EQ(jobs->value, 6u);

  // Without obs, the same run reports an identical makespan: observability
  // never perturbs the simulation.
  RunConfig plain;
  plain.with_slaves(3);
  const RunResult base = rck::run(dataset, plain);
  EXPECT_EQ(base.makespan, run.makespan);
  EXPECT_EQ(base.results, run.results);
  EXPECT_EQ(base.obs, nullptr);
}

TEST(Run, UncachedFaultTolerantRunMatchesThePlainRun) {
  // Uncached, every job's cost hint is the L1*L2 proxy rather than cycles.
  // A lease derived from it would expire long before a tiny-dataset job
  // ends, so the farm sizes one fixed lease from its longest job instead.
  const std::vector<bio::Protein> dataset = bio::build_dataset(bio::tiny_spec());
  RunConfig cfg;
  cfg.with_slaves(3);
  const RunResult plain = rck::run(dataset, cfg);
  cfg.with_fault_tolerance();
  const RunResult ft = rck::run(dataset, cfg);
  const auto by_pair = [](std::vector<rckalign::PairRow> rows) {
    for (rckalign::PairRow& r : rows) r.worker = -1;  // the slave may differ
    std::sort(rows.begin(), rows.end(),
              [](const rckalign::PairRow& a, const rckalign::PairRow& b) {
                return std::pair{a.i, a.j} < std::pair{b.i, b.j};
              });
    return rows;
  };
  EXPECT_EQ(ft.results.size(), dataset.size() * (dataset.size() - 1) / 2);
  EXPECT_EQ(by_pair(ft.results), by_pair(plain.results));
}

TEST(Run, FaultTolerantRunRejectsSendTerminateOff) {
  // Fault-tolerant slaves stop only on TERMINATE, so a master that would
  // never send it is rejected before the READY phase instead of stranding
  // every slave. RunConfig cannot ask for that; the farm entry point can.
  rckskel::FarmOptions opts;
  opts.send_terminate = false;
  const rckskel::Worker echo = [](rcce::Comm&, const bio::Bytes& p) { return p; };
  scc::SpmdRuntime rt{scc::RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [&](scc::CoreCtx& ctx) {
                        rcce::Comm comm(ctx);
                        if (comm.ue() == 0)
                          (void)rckskel::farm_ft(
                              comm, rckskel::Task::make_par({1}, {rckskel::Job{}}),
                              opts);
                        else
                          rckskel::farm_slave_ft(comm, 0, echo, opts);
                      }),
               rckskel::SkelError);
}

// -- error taxonomy -----------------------------------------------------

TEST(ErrorTaxonomy, BioErrorsCarryStableCodes) {
  try {
    throw bio::WireError("truncated frame");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "rck.bio.wire");
    EXPECT_STREQ(e.what(), "rck.bio.wire: truncated frame");
  }
  try {
    throw bio::PdbError("no CA atoms");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "rck.bio.pdb");
    EXPECT_STREQ(e.what(), "rck.bio.pdb: no CA atoms");
  }
}

TEST(ErrorTaxonomy, SimErrorsCarryStableCodes) {
  try {
    throw scc::DeadlockError("all cores blocked");
  } catch (const scc::SimError& e) {
    EXPECT_EQ(e.code(), "rck.scc.deadlock");
  }
  try {
    throw scc::FaultStallError("no progress past horizon");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "rck.scc.fault_stall");
  }
  // Every taxonomy member is catchable as rck::Error.
  EXPECT_THROW(throw scc::SimError("boom"), Error);
}

}  // namespace
