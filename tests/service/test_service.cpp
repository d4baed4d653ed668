// rck::service::Service — resident database + incremental matrix +
// admission-controlled query rounds.
//
// The two load-bearing properties here are the incremental-add contract
// (adding one structure to an N-entry database issues exactly N comparisons
// and lands a matrix bit-identical to a from-scratch build) and the byte
// identity of the service's observable output (obs JSON and every result
// document) across host-pool widths.
#include "rck/service/service.hpp"

#include <gtest/gtest.h>

#include "rck/bio/dataset.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/service/loadgen.hpp"

namespace {

using namespace rck;

std::vector<bio::Protein> make_db(int n, std::uint64_t seed = 0x5E21) {
  bio::Rng rng(seed);
  std::vector<bio::Protein> db;
  for (int i = 0; i < n; ++i)
    db.push_back(bio::make_protein("db" + std::to_string(i), 24 + 3 * i, rng));
  return db;
}

RunConfig config(int slaves) {
  RunConfig cfg;
  cfg.with_slaves(slaves);
  return cfg;
}

TEST(Service, PreprocessesEveryEntryAtLoad) {
  const auto db = make_db(3);
  service::Service svc(db, config(3));
  ASSERT_EQ(svc.size(), 3u);
  for (std::size_t i = 0; i < svc.size(); ++i)
    EXPECT_EQ(svc.entry(i).name(), db[i].name());
}

TEST(Service, MatrixMatchesDirectKernel) {
  const auto db = make_db(4);
  service::Service svc(db, config(3));
  EXPECT_EQ(svc.stats().matrix_jobs, 6u);  // C(4,2)
  for (std::size_t i = 0; i < db.size(); ++i)
    for (std::size_t j = i + 1; j < db.size(); ++j) {
      const core::TmAlignResult direct = core::tmalign(db[i], db[j]);
      const service::MatrixCell& cell = svc.matrix_at(i, j);
      EXPECT_DOUBLE_EQ(cell.tm_norm_a, direct.tm_norm_a);
      EXPECT_DOUBLE_EQ(cell.rmsd, direct.rmsd);
      // Symmetric lookup returns the same stored cell.
      EXPECT_EQ(&svc.matrix_at(j, i), &cell);
    }
  EXPECT_THROW(svc.matrix_at(0, 0), service::ServiceError);
  EXPECT_THROW(svc.matrix_at(0, 9), service::ServiceError);
}

TEST(Service, IncrementalAddCostsExactlyNAndMatchesFromScratch) {
  auto db = make_db(5);
  bio::Rng rng(0xADD);
  const bio::Protein extra = bio::make_protein("db_extra", 31, rng);

  // Incremental: build over N, then add the (N+1)-th.
  service::Service incremental(db, config(4));
  const std::uint64_t before = incremental.stats().matrix_jobs;
  EXPECT_EQ(before, 10u);  // C(5,2)
  const std::size_t idx = incremental.add_structure(extra);
  EXPECT_EQ(idx, 5u);
  EXPECT_EQ(incremental.size(), 6u);
  // Exactly N new comparisons, never a rebuild.
  EXPECT_EQ(incremental.stats().matrix_jobs - before, 5u);

  // From scratch over all N+1.
  db.push_back(extra);
  service::Service fresh(db, config(4));
  EXPECT_EQ(fresh.stats().matrix_jobs, 15u);  // C(6,2)

  // The matrices are bit-identical, cell for cell.
  EXPECT_EQ(incremental.matrix(), fresh.matrix());
}

TEST(Service, ServesQueriesLikeRunQuery) {
  const auto db = make_db(4);
  bio::Rng rng(0x0B5E);
  const bio::Protein probe = bio::perturb(db[1], "probe", rng);

  RunConfig cfg = config(3);
  service::Service svc(db, cfg);
  const std::uint64_t id = svc.submit(Query::one_vs_all(probe, 3));
  const std::vector<QueryResult> results = svc.drain();
  ASSERT_EQ(results.size(), 1u);
  const QueryResult& served = results[0];
  EXPECT_EQ(served.id, id);
  EXPECT_FALSE(served.shed);

  const QueryResult standalone =
      run_query(db, Query::one_vs_all(probe, 3), cfg);
  ASSERT_EQ(served.hits.size(), standalone.hits.size());
  for (std::size_t k = 0; k < served.hits.size(); ++k)
    EXPECT_EQ(served.hits[k], standalone.hits[k]);
  EXPECT_EQ(svc.stats().served, 1u);
  EXPECT_EQ(svc.stats().query_jobs, db.size());
}

TEST(Service, FaultTolerantBuildAndDrainMatchThePlainService) {
  // Uncached matrix and query rounds under the fault-tolerant farm: every
  // job carries the L1*L2 proxy as cost hint, so the rounds need the fixed
  // lease run_pairs sizes from the longest job.
  const auto db = bio::build_dataset(bio::tiny_spec());
  bio::Rng rng(0x0F7A);
  const Query q = Query::k_vs_all({bio::perturb(db[2], "p0", rng), db[6]});
  service::Service plain(db, config(6));
  RunConfig ft_cfg = config(6);
  ft_cfg.with_fault_tolerance();
  service::Service ft(db, ft_cfg);
  EXPECT_EQ(ft.matrix(), plain.matrix());

  plain.submit(q);
  ft.submit(q);
  const std::vector<QueryResult> want = plain.drain();
  const std::vector<QueryResult> got = ft.drain();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(got[0].hits.size(), 2 * db.size());
  ASSERT_EQ(got[0].hits.size(), want[0].hits.size());
  for (std::size_t k = 0; k < got[0].hits.size(); ++k) {
    QueryHit h = got[0].hits[k];
    h.worker = want[0].hits[k].worker;  // the serving slave may differ
    EXPECT_EQ(h, want[0].hits[k]) << k;
  }
}

TEST(Service, SubmitRejectsMalformedQueries) {
  service::Service svc(make_db(3), config(2));
  Query bad = Query::one_vs_all(bio::Protein{});
  try {
    svc.submit(bad);
    FAIL() << "expected ServiceError";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), "rck.service.invalid");
  }
}

TEST(Service, CoalescesWaitingQueriesIntoOneRound) {
  const auto db = make_db(3);
  bio::Rng rng(0xC0A1);
  RunConfig cfg = config(3);
  cfg.with_max_queries_per_round(4);
  service::Service svc(db, cfg);
  // All four arrive at t=0, the round cap admits them together.
  for (int k = 0; k < 4; ++k)
    svc.submit(Query::one_vs_all(bio::perturb(db[0], "p" + std::to_string(k), rng)));
  const auto results = svc.drain();
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(svc.stats().rounds, 1u);
  // One coalesced round: every query completes at the same simulated time.
  for (const QueryResult& r : results)
    EXPECT_EQ(r.completion, results[0].completion);
}

TEST(Service, ShedsLoudlyBeyondQueueCapacityAndCanEscalate) {
  const auto db = make_db(3);
  bio::Rng rng(0x5EDD);
  RunConfig cfg = config(2);
  cfg.with_queue_capacity(2).with_max_queries_per_round(1);
  service::Service svc(db, cfg);
  // Five simultaneous arrivals against capacity 2: round takes 1, queue
  // holds 2, the remainder is shed.
  for (int k = 0; k < 5; ++k)
    svc.submit(Query::one_vs_all(bio::perturb(db[0], "p" + std::to_string(k), rng)));
  const auto results = svc.drain();
  ASSERT_EQ(results.size(), 5u);
  std::size_t shed = 0;
  for (const QueryResult& r : results) {
    if (r.shed) {
      ++shed;
      EXPECT_TRUE(r.hits.empty());
    }
  }
  EXPECT_EQ(shed, svc.stats().shed);
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(svc.stats().served + svc.stats().shed, 5u);

  // Same overload with fail_on_shed escalates to OverloadError.
  RunConfig strict = cfg;
  strict.with_fail_on_shed();
  service::Service strict_svc(db, strict);
  bio::Rng rng2(0x5EDD);
  for (int k = 0; k < 5; ++k)
    strict_svc.submit(
        Query::one_vs_all(bio::perturb(db[0], "p" + std::to_string(k), rng2)));
  try {
    strict_svc.drain();
    FAIL() << "expected OverloadError";
  } catch (const service::OverloadError& e) {
    EXPECT_EQ(e.code(), "rck.service.overload");
  }
}

TEST(Service, ObsAndResultsAreByteIdenticalSerialVsHostParallel) {
  const auto db = make_db(4);
  service::TraceOptions topts;
  topts.queries = 6;
  topts.rate_qps = 8.0;
  const std::vector<Query> trace = service::generate_trace(db, topts);

  const auto run_with = [&](int host_threads) {
    RunConfig cfg = config(3);
    cfg.with_host_threads(host_threads);
    service::Service svc(db, cfg);
    for (const Query& q : trace) svc.submit(q);
    std::string docs;
    for (const QueryResult& r : svc.drain()) docs += r.to_json();
    return std::pair<std::string, std::string>(svc.obs_json(), docs);
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial.first, parallel.first);    // service metrics JSON
  EXPECT_EQ(serial.second, parallel.second);  // every result document
}

TEST(Service, StatsAndObsCountersAgree) {
  const auto db = make_db(3);
  bio::Rng rng(0x57A7);
  service::Service svc(db, config(2));
  svc.submit(Query::pair(bio::perturb(db[0], "x", rng),
                         bio::perturb(db[1], "y", rng)));
  svc.submit(Query::one_vs_all(bio::perturb(db[2], "z", rng)));
  (void)svc.drain();

  const service::Stats& st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.served, 2u);
  EXPECT_EQ(st.query_jobs, 1u + db.size());
  EXPECT_EQ(st.clock, st.busy);  // both queries arrive at t=0: no idle gaps

  const std::string json = svc.obs_json();
  EXPECT_NE(json.find("service.queries"), std::string::npos);
  EXPECT_NE(json.find("service.query_latency_ps"), std::string::npos);
  EXPECT_NE(json.find("service.queue_depth"), std::string::npos);
}

TEST(Service, RejectsInvalidConfigAndEmptyStructures) {
  EXPECT_THROW(service::Service(make_db(2), config(0)), ConfigError);
  std::vector<bio::Protein> db = make_db(2);
  db.push_back(bio::Protein{});
  EXPECT_THROW(service::Service(db, config(2)), service::ServiceError);
}

}  // namespace
