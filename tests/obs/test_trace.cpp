// End-to-end observability determinism on the paper's CK34 workload.
//
// The headline guarantees under test:
//   * enabling observability does not perturb the simulation (makespan and
//     results identical to an uninstrumented run);
//   * runs at host-pool widths 1 and 4 produce byte-identical trace and
//     metrics JSON;
//   * the emitted Chrome trace validates against the schema checker, and
//     its farm job spans account for each slave core's busy time.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/obs/sink.hpp"
#include "rck/obs/trace_check.hpp"
#include "rck/rck.hpp"

namespace {

using namespace rck;

constexpr int kSlaves = 12;

class TraceE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::ck34_spec()));
    cache_ = new rckalign::PairCache(rckalign::PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    cache_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static RunResult run_with(int host_threads, bool collect) {
    RunConfig cfg;
    cfg.with_slaves(kSlaves).with_cache(cache_).with_host_threads(host_threads);
    if (collect) cfg.with_collect();
    return rck::run(*dataset_, cfg);
  }

  static std::vector<bio::Protein>* dataset_;
  static rckalign::PairCache* cache_;
};

std::vector<bio::Protein>* TraceE2E::dataset_ = nullptr;
rckalign::PairCache* TraceE2E::cache_ = nullptr;

TEST_F(TraceE2E, ObservabilityDoesNotPerturbTheSimulation) {
  const RunResult plain = run_with(1, false);
  const RunResult traced = run_with(1, true);
  EXPECT_EQ(plain.makespan, traced.makespan);
  EXPECT_EQ(plain.results, traced.results);
  EXPECT_EQ(plain.core_reports, traced.core_reports);
  EXPECT_EQ(plain.events, traced.events);
  EXPECT_EQ(plain.obs, nullptr);
  EXPECT_NE(traced.obs, nullptr);
}

TEST_F(TraceE2E, SerialAndHostParallelTracesAreByteIdentical) {
  const RunResult serial = run_with(1, true);
  const RunResult parallel = run_with(4, true);
  ASSERT_NE(serial.obs, nullptr);
  ASSERT_NE(parallel.obs, nullptr);

  EXPECT_EQ(serial.makespan, parallel.makespan);
  EXPECT_EQ(serial.results, parallel.results);

  const std::string trace_a = obs::chrome_trace_json(*serial.obs);
  const std::string trace_b = obs::chrome_trace_json(*parallel.obs);
  EXPECT_EQ(trace_a, trace_b);

  const std::string metrics_a = serial.obs->snapshot().to_json();
  const std::string metrics_b = parallel.obs->snapshot().to_json();
  EXPECT_EQ(metrics_a, metrics_b);

  std::string error;
  std::size_t events = 0;
  ASSERT_TRUE(obs::validate_chrome_trace(trace_a, error, &events)) << error;
  // One lane entry per core op at minimum; CK34 with 561 jobs is busy.
  EXPECT_GT(events, 2u * 561u);
}

TEST_F(TraceE2E, FarmJobSpansAccountForSlaveBusyTime) {
  const RunResult run = run_with(1, true);
  ASSERT_NE(run.obs, nullptr);
  const obs::Std& ids = run.obs->std_ids();

  // Sum the slave-side job spans (decode -> result sent) per shard.
  std::vector<std::uint64_t> span_sum(run.core_reports.size(), 0);
  for (const auto& m : run.obs->merged_trace()) {
    if (m.rec.ph != obs::Ph::Span || m.rec.lane != obs::Lane::Core) continue;
    if (m.rec.name != ids.n_job) continue;
    ASSERT_LT(static_cast<std::size_t>(m.shard), span_sum.size());
    span_sum[static_cast<std::size_t>(m.shard)] += m.rec.dur;
  }

  for (int rank = 1; rank <= kSlaves; ++rank) {
    const std::uint64_t busy = run.core_reports[static_cast<std::size_t>(rank)].busy;
    const std::uint64_t spans = span_sum[static_cast<std::size_t>(rank)];
    ASSERT_GT(busy, 0u);
    ASSERT_GT(spans, 0u) << "slave " << rank << " recorded no job spans";
    // Per-pair compute dwarfs the protocol endpoints (READY handshake, job
    // frame receive), so the job spans must essentially be the busy time.
    const double ratio =
        static_cast<double>(spans) / static_cast<double>(busy);
    EXPECT_GT(ratio, 0.99) << "slave " << rank;
    EXPECT_LT(ratio, 1.01) << "slave " << rank;
  }

  // Master-side accounting: one async begin/end pair per job, balanced.
  std::uint64_t begins = 0, ends = 0;
  for (const auto& m : run.obs->merged_trace()) {
    if (m.rec.lane != obs::Lane::Farm) continue;
    if (m.rec.ph == obs::Ph::AsyncBegin) ++begins;
    if (m.rec.ph == obs::Ph::AsyncEnd) ++ends;
  }
  EXPECT_EQ(begins, 561u);
  EXPECT_EQ(ends, 561u);
}

TEST_F(TraceE2E, MetricsMatchSimulationTotals) {
  const RunResult run = run_with(1, true);
  ASSERT_NE(run.obs, nullptr);
  const obs::Snapshot snap = run.obs->snapshot();

  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& row : snap.counters)
      if (row.name == name) return row.value;
    ADD_FAILURE() << "counter " << name << " missing";
    return 0;
  };

  EXPECT_EQ(counter("app.pairs"), 561u);
  EXPECT_EQ(counter("farm.jobs"), 561u);
  EXPECT_EQ(counter("farm.results"), 561u);
  EXPECT_EQ(counter("noc.messages"), run.network.messages);
  EXPECT_EQ(counter("noc.bytes"), run.network.total_bytes);
  EXPECT_EQ(counter("scc.crashes"), 0u);

  // Histogram plumbing: one job-latency observation per collected job.
  for (const auto& row : snap.histograms) {
    if (row.name == "farm.job_latency_ps") {
      EXPECT_EQ(row.merged.count, 561u);
      EXPECT_GT(row.merged.min, 0u);
    }
    if (row.name == "farm.slave_job_ps") {
      EXPECT_EQ(row.merged.count, 561u);
    }
  }
}

}  // namespace
