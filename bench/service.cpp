// Alignment-service bench: throughput and latency under offered load.
//
// Drives the rck::service::Service with the deterministic Poisson load
// generator at three (or more) offered-load levels and reports, per level,
// query throughput, pair-job throughput and exact p50/p99 latency — all in
// *simulated* time, so every number is host-independent and byte-stable for
// a given (seed, dataset, config).
//
// The gate compares the service's pair-job throughput at the highest
// offered load against a batch-mode baseline: the same served comparisons
// submitted as ONE run_pairs() execution (no rounds, no admission control,
// one dataset load). Coalescing is the service's whole performance story,
// so it must stay within 10% of the batch ceiling:
//
//   service pair throughput >= 0.9 x batch pair throughput
//
// Writes BENCH_service.json. --smoke shrinks the dataset and trace for the
// CI plain leg (schema and exit-code checked there; the perf-smoke leg runs
// the full configuration and enforces the same gate).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/harness/arg_parser.hpp"
#include "rck/harness/tables.hpp"
#include "rck/obs/metrics.hpp"
#include "rck/rck.hpp"
#include "rck/service/loadgen.hpp"
#include "rck/service/service.hpp"

namespace {

using namespace rck;

struct Level {
  double rate_qps = 0.0;
  service::Stats stats{};
  double p50_s = 0.0;
  double p99_s = 0.0;
  double throughput_qps = 0.0;       ///< served queries / simulated clock
  double pair_throughput = 0.0;      ///< query pair jobs / simulated busy s
};

void append_level(std::string& json, const Level& lv, bool last) {
  json += "    {\"rate_qps\": ";
  obs::append_json_double(json, lv.rate_qps);
  json += ", \"served\": ";
  obs::append_json_u64(json, lv.stats.served);
  json += ", \"shed\": ";
  obs::append_json_u64(json, lv.stats.shed);
  json += ", \"rounds\": ";
  obs::append_json_u64(json, lv.stats.rounds);
  json += ", \"pair_jobs\": ";
  obs::append_json_u64(json, lv.stats.query_jobs);
  json += ", \"clock_s\": ";
  obs::append_json_double(json, noc::to_seconds(lv.stats.clock));
  json += ", \"busy_s\": ";
  obs::append_json_double(json, noc::to_seconds(lv.stats.busy));
  json += ", \"throughput_qps\": ";
  obs::append_json_double(json, lv.throughput_qps);
  json += ", \"pair_throughput_per_s\": ";
  obs::append_json_double(json, lv.pair_throughput);
  json += ", \"p50_s\": ";
  obs::append_json_double(json, lv.p50_s);
  json += ", \"p99_s\": ";
  obs::append_json_double(json, lv.p99_s);
  json += last ? "}\n" : "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int slaves = 12;
  int queries = 24;
  int db_size = 16;
  std::string json_path = "BENCH_service.json";
  harness::ArgParser cli(
      "bench_service",
      "Alignment service throughput/latency vs offered load, with a "
      "batch-mode gate.");
  cli.flag("smoke", &smoke,
           "CI plain-leg mode: tiny dataset and a short trace (same schema, "
           "same gate)")
      .option("slaves", &slaves, "simulated slave cores")
      .option("queries", &queries, "queries per offered-load level")
      .option("db-size", &db_size, "database entries (prefix of CK34)")
      .option("json", &json_path, "output path for the bench JSON");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const harness::ArgError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::vector<bio::Protein> database;
  std::string dataset_name;
  if (smoke) {
    database = bio::build_dataset(bio::tiny_spec());
    dataset_name = "tiny";
    queries = std::min(queries, 6);
    slaves = std::min(slaves, 7);
  } else {
    database = bio::build_dataset(bio::ck34_spec());
    if (db_size > 0 && static_cast<std::size_t>(db_size) < database.size())
      database.resize(static_cast<std::size_t>(db_size));
    dataset_name = "ck34[0.." + std::to_string(database.size()) + ")";
  }

  RunConfig cfg;
  // A deeper round cap amortizes the per-round database load across more
  // coalesced queries — that's the throughput knob this bench measures.
  cfg.with_slaves(slaves).with_max_queries_per_round(16);

  const std::vector<double> rates{2.0, 8.0, 32.0};
  std::cout << "Service bench: " << dataset_name << " database ("
            << database.size() << " entries), " << slaves << " slaves, "
            << queries << " queries per level\n\n";

  std::vector<Level> levels;
  // The highest-load trace doubles as the gate workload: saturated rounds
  // are where coalescing either pays or doesn't.
  std::vector<Query> gate_trace;
  std::vector<QueryResult> gate_results;
  for (std::size_t li = 0; li < rates.size(); ++li) {
    service::TraceOptions topts;
    topts.queries = static_cast<std::size_t>(queries);
    topts.rate_qps = rates[li];
    const std::vector<Query> trace = service::generate_trace(database, topts);

    service::Service svc(database, cfg);
    for (const Query& q : trace) svc.submit(q);
    const std::vector<QueryResult> results = svc.drain();

    std::vector<std::uint64_t> lat;
    for (const QueryResult& r : results)
      if (!r.shed) lat.push_back(r.completion - r.arrival);
    std::sort(lat.begin(), lat.end());
    const auto pct = [&lat](std::size_t p) {
      return lat.empty()
                 ? 0.0
                 : noc::to_seconds(lat[(lat.size() - 1) * p / 100]);
    };

    Level lv;
    lv.rate_qps = rates[li];
    lv.stats = svc.stats();
    lv.p50_s = pct(50);
    lv.p99_s = pct(99);
    lv.throughput_qps =
        lv.stats.clock > 0 ? static_cast<double>(lv.stats.served) /
                                 noc::to_seconds(lv.stats.clock)
                           : 0.0;
    lv.pair_throughput =
        lv.stats.busy > 0 ? static_cast<double>(lv.stats.query_jobs) /
                                noc::to_seconds(lv.stats.busy)
                          : 0.0;
    levels.push_back(lv);

    std::printf("  offered %5.1f q/s: served %llu shed %llu in %llu rounds, "
                "%.2f q/s, %.1f pairs/s, p50 %.3fs p99 %.3fs\n",
                lv.rate_qps, static_cast<unsigned long long>(lv.stats.served),
                static_cast<unsigned long long>(lv.stats.shed),
                static_cast<unsigned long long>(lv.stats.rounds),
                lv.throughput_qps, lv.pair_throughput, lv.p50_s, lv.p99_s);

    if (li + 1 == rates.size()) {
      gate_trace = trace;
      gate_results = results;
    }
  }

  // Batch-mode baseline: every comparison the service executed for the
  // served gate-level queries, as one run_pairs() — same structures, same
  // methods, same farm configuration, zero service overhead.
  std::vector<const bio::Protein*> structures;
  for (const bio::Protein& p : database) structures.push_back(&p);
  std::vector<rckalign::PairSpec> specs;
  for (const QueryResult& r : gate_results) {
    if (r.shed) continue;
    const Query& q = gate_trace.at(static_cast<std::size_t>(r.id - 1));
    const auto base = static_cast<std::uint32_t>(structures.size());
    for (const bio::Protein& probe : q.probes) structures.push_back(&probe);
    for (const rckalign::Method method : cfg.methods) {
      if (q.kind == QueryKind::Pair) {
        specs.push_back(rckalign::PairSpec{base, base + 1, method});
        continue;
      }
      for (std::uint32_t p = 0; p < q.probes.size(); ++p)
        for (std::uint32_t e = 0; e < database.size(); ++e)
          specs.push_back(rckalign::PairSpec{base + p, e, method});
    }
  }
  const rckalign::PairsRun batch = rckalign::run_pairs(structures, specs, cfg);
  const double batch_throughput =
      batch.makespan > 0 ? static_cast<double>(specs.size()) /
                               noc::to_seconds(batch.makespan)
                         : 0.0;
  const double service_throughput = levels.back().pair_throughput;
  const double ratio =
      batch_throughput > 0.0 ? service_throughput / batch_throughput : 1.0;
  const bool gate_pass = ratio >= 0.9;

  std::printf("\nbatch baseline: %zu jobs in %.2f simulated s -> %.1f "
              "pairs/s\n",
              specs.size(), noc::to_seconds(batch.makespan),
              batch_throughput);
  std::printf("%s: service %.1f pairs/s vs batch %.1f pairs/s (ratio %.3f, "
              ">= 0.9 required)\n",
              gate_pass ? "GATE OK" : "GATE VIOLATION", service_throughput,
              batch_throughput, ratio);

  std::string json;
  json += "{\n  \"bench\": \"service\",\n  \"dataset\": ";
  obs::append_json_escaped(json, dataset_name);
  json += ",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"slaves\": ";
  obs::append_json_u64(json, static_cast<std::uint64_t>(slaves));
  json += ",\n  \"queries_per_level\": ";
  obs::append_json_u64(json, static_cast<std::uint64_t>(queries));
  json += ",\n  \"levels\": [\n";
  for (std::size_t k = 0; k < levels.size(); ++k)
    append_level(json, levels[k], k + 1 == levels.size());
  json += "  ],\n  \"batch_baseline\": {\"jobs\": ";
  obs::append_json_u64(json, specs.size());
  json += ", \"makespan_s\": ";
  obs::append_json_double(json, noc::to_seconds(batch.makespan));
  json += ", \"pair_throughput_per_s\": ";
  obs::append_json_double(json, batch_throughput);
  json += "},\n  \"gate\": {\"service_pair_throughput_per_s\": ";
  obs::append_json_double(json, service_throughput);
  json += ", \"ratio\": ";
  obs::append_json_double(json, ratio);
  json += ", \"pass\": ";
  json += gate_pass ? "true" : "false";
  json += "}\n}\n";
  harness::write_file(json_path, json);
  std::cout << "JSON written to " << json_path << "\n";

  return gate_pass ? 0 : 1;
}
