// scc_all_vs_all: command-line driver for the paper's workload.
//
// Runs an all-vs-all protein structure comparison on the simulated SCC and
// prints timing, per-core utilization and network statistics — the numbers
// a systems person would want when sizing a run. Built on the consolidated
// rck:: API: one RunConfig, one rck::run(), with observability routed
// through --trace-out / --metrics-out (see DESIGN.md, "Observability").
//
// Examples:
//   scc_all_vs_all --dataset ck34 --slaves 47
//   scc_all_vs_all --dataset ck34 --slaves 47 --distributed   # NFS baseline
//   scc_all_vs_all --dataset ck34 --trace-out trace.json      # chrome://tracing
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/bio/pdb_io.hpp"
#include "rck/harness/arg_parser.hpp"
#include "rck/harness/tables.hpp"
#include "rck/noc/heatmap.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/distributed.hpp"
#include "rck/scc/gantt.hpp"
#include "rck/service/loadgen.hpp"
#include "rck/service/service.hpp"

using namespace rck;

int main(int argc, char** argv) {
  std::string dataset_name = "tiny";
  int slaves = 7;
  bool lpt = false, serial = false, distributed = false, gantt = false,
       heatmap = false;
  bool master_ft = false;
  double crash_master_ms = -1.0;
  int host_threads = 1;
  int batch = 1;
  std::string csv_path;
  obs::Config obs_cfg;
  bool chk_on = false;
  int chk_seed = 0;
  std::string chk_report;
  bool mc_on = false;
  int mc_bound = 4096;
  std::string mc_replay_path;
  std::string mc_witness_path;
  std::string query_pdb;
  int k_vs_all = 0;
  int top_k = 8;
  int service_trace = 0;
  double service_rate = 4.0;

  static constexpr std::string_view kDatasets[] = {"tiny", "ck34", "rs119"};
  harness::ArgParser cli(
      "scc_all_vs_all",
      "All-vs-all protein structure comparison on the simulated SCC.");
  cli.choice("dataset", &dataset_name, kDatasets, "input dataset")
      .option("slaves", &slaves, "slave cores (rank 0 is the master)")
      .flag("lpt", &lpt, "longest-first job order (paper used FIFO)")
      .option("batch", &batch,
              "jobs per farm grant (K>1 cuts master round trips; results "
              "are bit-identical to K=1)")
      .flag("serial", &serial, "single-core serial baseline instead")
      .flag("distributed", &distributed, "distributed TM-align NFS baseline")
      .option("csv", &csv_path, "write per-pair results as CSV")
      .flag("gantt", &gantt, "print an ASCII per-core activity gantt")
      .flag("heatmap", &heatmap, "print the NoC link-utilization heatmap")
      .option("host-threads", &host_threads,
              "host threads pre-executing the comparisons (0 = all)")
      .flag("master-ft", &master_ft,
            "checkpointed master + standby failover (standby on rank slaves+1)")
      .option("crash-master-at", &crash_master_ms,
              "crash the master at this simulated ms (implies --master-ft)")
      .flag("chk", &chk_on, "verify the RCCE flag/MPB protocol (race detector)")
      .option("chk-seed", &chk_seed,
              "perturb tied-clock scheduling with this seed (implies --chk)")
      .option("chk-report", &chk_report,
              "write the chk race-report JSON here (implies --chk)")
      .flag("mc", &mc_on,
            "bounded systematic exploration of same-instant schedule ties "
            "with protocol-invariant checking (exit 3 on a violation)")
      .option("mc-bound", &mc_bound,
              "max schedules explored by --mc (0 = exhaustive)")
      .option("mc-replay", &mc_replay_path,
              "replay a saved rck-mc-witness-v1 JSON deterministically "
              "instead of exploring (implies --mc)")
      .option("mc-witness", &mc_witness_path,
              "write the first violating schedule's witness here")
      .option("query", &query_pdb,
              "one-vs-all: align this PDB file against the dataset instead "
              "of running all-vs-all (Query API)")
      .option("k-vs-all", &k_vs_all,
              "k-vs-all: derive N seeded probes from the dataset and align "
              "each against all of it (Query API)")
      .option("top-k", &top_k,
              "hits kept per (method, probe) in the query modes")
      .option("service-trace", &service_trace,
              "serve N load-generator queries through the alignment service "
              "and print throughput + latency percentiles")
      .option("service-rate", &service_rate,
              "offered load for --service-trace, queries per simulated second")
      .obs_flags(&obs_cfg);
  // Pre-rename spellings stay alive as aliases for one release.
  cli.alias("query-pdb", "query")
      .alias("slave-count", "slaves")
      .alias("service-queries", "service-trace");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const harness::ArgError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bio::DatasetSpec spec;
  if (dataset_name == "tiny") spec = bio::tiny_spec();
  else if (dataset_name == "ck34") spec = bio::ck34_spec();
  else spec = bio::rs119_spec();

  const std::vector<bio::Protein> dataset = bio::build_dataset(spec);

  // Race-detector flags, shared by the query path and the all-vs-all run.
  const auto with_chk_flags = [&](RunConfig& c) {
    if (chk_on) c.with_chk();
    if (chk_seed != 0) c.with_chk_seed(static_cast<std::uint64_t>(chk_seed));
    if (!chk_report.empty()) c.with_chk_report(chk_report);
  };

  // -- query / service modes (Query API; no all-vs-all cache needed) -----
  if (!query_pdb.empty() || k_vs_all > 0 || service_trace > 0) {
    RunConfig qcfg;
    qcfg.with_slaves(slaves)
        .with_lpt(lpt)
        .with_batch(batch < 0 ? 0 : static_cast<std::size_t>(batch))
        .with_host_threads(host_threads == 0
                               ? scc::HostParallelism::hardware().threads
                               : host_threads)
        .with_obs(obs_cfg);
    if (master_ft) qcfg.with_master_ft();
    try {
      if (service_trace > 0) {
        service::TraceOptions topts;
        topts.queries = static_cast<std::size_t>(service_trace);
        topts.rate_qps = service_rate;
        topts.top_k = static_cast<std::size_t>(top_k);
        std::vector<Query> trace = service::generate_trace(dataset, topts);
        service::Service svc(dataset, qcfg);
        for (Query& q : trace) svc.submit(std::move(q));
        const std::vector<QueryResult> results = svc.drain();

        std::vector<std::uint64_t> lat;
        for (const QueryResult& r : results)
          if (!r.shed) lat.push_back(r.completion - r.arrival);
        std::sort(lat.begin(), lat.end());
        const auto pct = [&lat](std::size_t p) -> double {
          if (lat.empty()) return 0.0;
          return noc::to_seconds(lat[(lat.size() - 1) * p / 100]);
        };
        const service::Stats& st = svc.stats();
        std::printf("service: %s database (%zu entries, %llu matrix jobs), "
                    "%d slaves\n",
                    spec.name.c_str(), svc.size(),
                    static_cast<unsigned long long>(st.matrix_jobs), slaves);
        std::printf("  served %llu / shed %llu of %llu queries in %llu "
                    "rounds (%llu pair jobs)\n",
                    static_cast<unsigned long long>(st.served),
                    static_cast<unsigned long long>(st.shed),
                    static_cast<unsigned long long>(st.submitted),
                    static_cast<unsigned long long>(st.rounds),
                    static_cast<unsigned long long>(st.query_jobs));
        std::printf("  clock %.2f simulated s (busy %.2f s) -> %.2f "
                    "queries/s\n",
                    noc::to_seconds(st.clock), noc::to_seconds(st.busy),
                    st.clock > 0 ? static_cast<double>(st.served) /
                                       noc::to_seconds(st.clock)
                                 : 0.0);
        std::printf("  latency p50 %.3f s, p99 %.3f s\n", pct(50), pct(99));
        svc.write_obs();
        if (!obs_cfg.metrics_path.empty())
          std::printf("service metrics written to %s\n",
                      obs_cfg.metrics_path.c_str());
        return 0;
      }

      Query q;
      if (!query_pdb.empty()) {
        q = Query::one_vs_all(bio::parse_pdb_file(query_pdb),
                              static_cast<std::size_t>(top_k));
      } else {
        bio::Rng rng(0xC0FFEE);
        std::vector<bio::Protein> probes;
        probes.reserve(static_cast<std::size_t>(k_vs_all));
        for (int k = 0; k < k_vs_all; ++k)
          probes.push_back(
              bio::perturb(dataset[rng() % dataset.size()],
                           "probe/k" + std::to_string(k), rng));
        q = Query::k_vs_all(std::move(probes), static_cast<std::size_t>(top_k));
      }
      with_chk_flags(qcfg);
      const QueryResult res = run_query(dataset, q, qcfg);
      std::printf("%s query vs %zu chains: %.2f simulated s, top %d per "
                  "probe:\n",
                  std::string(query_kind_name(res.kind)).c_str(),
                  dataset.size(), noc::to_seconds(res.makespan), top_k);
      for (const QueryHit& h : res.hits)
        std::printf("  probe %u  %-22s TM=%.3f rmsd=%5.2f aligned=%u "
                    "(worker %d)\n",
                    h.probe, dataset[h.entry].name().c_str(), h.tm_query,
                    h.rmsd, h.aligned_length, h.worker);
      if (!chk_report.empty())
        std::printf("chk report written to %s\n", chk_report.c_str());
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  std::printf("dataset %s: building %d chains and aligning %zu pairs...\n",
              spec.name.c_str(), spec.total_chains(),
              bio::all_vs_all_pairs(static_cast<std::size_t>(spec.total_chains())));
  const rckalign::PairCache cache = rckalign::PairCache::build(dataset);

  const scc::CoreTimingModel p54c = scc::CoreTimingModel::p54c_800();
  if (serial) {
    const noc::SimTime t =
        rckalign::run_serial(dataset, cache, p54c, scc::default_scc());
    std::printf("serial on one P54C core: %.1f simulated seconds\n", noc::to_seconds(t));
    return 0;
  }
  if (distributed) {
    const rckalign::DistributedRun run =
        rckalign::run_distributed(dataset, cache, slaves, p54c);
    std::printf("distributed TM-align (MCPC master, NFS): %d slaves -> %.1f s\n",
                slaves, noc::to_seconds(run.makespan));
    std::printf("  shared disk busy %.1f s (%.0f%% of the run); spawn total %.1f s\n",
                noc::to_seconds(run.disk_busy),
                100.0 * static_cast<double>(run.disk_busy) /
                    static_cast<double>(run.makespan),
                noc::to_seconds(run.spawn_total));
    return 0;
  }

  RunConfig cfg;
  cfg.with_slaves(slaves)
      .with_cache(&cache)
      .with_lpt(lpt)
      .with_batch(batch < 0 ? 0 : static_cast<std::size_t>(batch))
      .with_host_threads(host_threads == 0
                             ? scc::HostParallelism::hardware().threads
                             : host_threads)
      .with_obs(obs_cfg);
  if (gantt || heatmap) cfg.with_collect();  // both pictures read the recorder
  if (crash_master_ms >= 0.0) master_ft = true;
  if (master_ft) cfg.with_master_ft();
  if (crash_master_ms >= 0.0) {
    cfg.runtime.faults.crashes.push_back(scc::FaultPlan::Crash{
        0, static_cast<noc::SimTime>(crash_master_ms *
                                     static_cast<double>(noc::kPsPerMs))});
  }
  with_chk_flags(cfg);

  if (mc_on || !mc_replay_path.empty()) {
    cfg.with_mc_bound(mc_bound < 0 ? 0 : static_cast<std::uint64_t>(mc_bound))
        .with_mc_witness(mc_witness_path)
        .with_mc_replay(mc_replay_path)
        .with_mc_label(dataset_name + "/" +
                       (master_ft ? "master-ft"
                                  : (batch > 1 ? "batch" : "plain-farm")));
    McOutcome out;
    try {
      out = mc_replay_path.empty() ? mc_explore(dataset, cfg)
                                   : mc_replay(dataset, cfg);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    std::printf("mc: %s %llu schedule(s), max %zu decision points, "
                "canonical matrix digest 0x%llx\n",
                mc_replay_path.empty()
                    ? (out.exhausted ? "explored all" : "explored")
                    : "replayed",
                static_cast<unsigned long long>(out.schedules),
                out.max_decisions,
                static_cast<unsigned long long>(out.canonical_digest));
    if (out.violation) {
      std::printf("mc: VIOLATION of %s at schedule %llu: %s\n",
                  out.violation->invariant.c_str(),
                  static_cast<unsigned long long>(out.witness.schedule),
                  out.violation->detail.c_str());
      if (!mc_witness_path.empty())
        std::printf("mc: witness written to %s (re-run with --mc-replay)\n",
                    mc_witness_path.c_str());
      return 3;
    }
    std::printf("mc: every explored schedule satisfied the invariant suite "
                "and reproduced the canonical matrix\n");
    return 0;
  }

  RunResult run;
  try {
    run = rck::run(dataset, cfg);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (gantt) std::printf("\n%s\n", scc::render_gantt(*run.obs, run.makespan).c_str());
  if (heatmap) {
    const noc::Mesh mesh = cfg.runtime.chip.make_mesh();
    std::printf("\n%s\n", noc::render_link_heatmap(*run.obs, mesh, run.makespan).c_str());
  }

  std::printf("rckAlign: %d slaves%s -> %.2f simulated seconds, %llu sim events\n",
              slaves, lpt ? " (LPT)" : "", noc::to_seconds(run.makespan),
              static_cast<unsigned long long>(run.events));
  if (master_ft) {
    std::printf("master-ft: %zu checkpoints, %zu failover(s), %zu jobs resumed "
                "from checkpoint, %zu retries\n",
                run.farm_report.checkpoints, run.farm_report.failovers,
                run.farm_report.resumed_jobs, run.farm_report.retries);
  }
  std::printf("network: %llu msgs, %.1f MB, %llu hops, queueing %.3f ms\n",
              static_cast<unsigned long long>(run.network.messages),
              static_cast<double>(run.network.total_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(run.network.total_hops),
              static_cast<double>(run.network.total_queueing) /
                  static_cast<double>(noc::kPsPerMs));

  std::printf("per-core utilization (busy / makespan):\n");
  for (std::size_t rank = 0; rank < run.core_reports.size(); ++rank) {
    const scc::CoreReport& r = run.core_reports[rank];
    const double util =
        static_cast<double>(r.busy) / static_cast<double>(run.makespan);
    const bool is_standby =
        master_ft && rank == static_cast<std::size_t>(slaves) + 1;
    std::printf("  %s %-6s util %5.1f%%  busy %8.2fs  blocked %8.2fs  msgs %llu/%llu\n",
                rank == 0 ? "master" : (is_standby ? "stndby" : "slave "),
                scc::default_scc().core_name(static_cast<int>(rank)).c_str(),
                100.0 * util, noc::to_seconds(r.busy), noc::to_seconds(r.blocked),
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.messages_received));
    if (rank >= 9 && run.core_reports.size() > 12) {
      std::printf("  ... (%zu more slaves)\n", run.core_reports.size() - rank - 1);
      break;
    }
  }

  if (!obs_cfg.trace_path.empty())
    std::printf("trace written to %s (load in chrome://tracing or Perfetto)\n",
                obs_cfg.trace_path.c_str());
  if (!obs_cfg.metrics_path.empty())
    std::printf("metrics written to %s\n", obs_cfg.metrics_path.c_str());

  bool races_found = false;
  if (run.chk != nullptr) {
    const chk::Stats& cs = run.chk->stats();
    races_found = cs.races > 0;
    std::printf("chk: %llu MPB writes, %llu reads, %llu flag sets, %llu tests "
                "checked -> %llu race(s)\n",
                static_cast<unsigned long long>(cs.mpb_writes),
                static_cast<unsigned long long>(cs.mpb_reads),
                static_cast<unsigned long long>(cs.flag_sets),
                static_cast<unsigned long long>(cs.flag_tests),
                static_cast<unsigned long long>(cs.races));
    for (const chk::RaceReport& r : run.chk->reports())
      std::printf("  rck.chk.race: core %d (%s) vs core %d (%s) on MPB %d\n",
                  r.current.core,
                  std::string(run.chk->site_name(r.current.site)).c_str(),
                  r.prior.core,
                  std::string(run.chk->site_name(r.prior.site)).c_str(),
                  r.current.mpb);
    if (!chk_report.empty())
      std::printf("chk report written to %s\n", chk_report.c_str());
  }

  if (!csv_path.empty()) {
    harness::TextTable csv("results");
    csv.set_columns({"i", "j", "name_i", "name_j", "tm_a", "tm_b", "rmsd",
                     "aligned", "seqid", "worker"});
    for (const rckalign::PairRow& row : run.results)
      csv.add_row({std::to_string(row.i), std::to_string(row.j),
                   dataset[row.i].name(), dataset[row.j].name(),
                   std::to_string(row.tm_norm_a), std::to_string(row.tm_norm_b),
                   std::to_string(row.rmsd), std::to_string(row.aligned_length),
                   std::to_string(row.seq_identity), std::to_string(row.worker)});
    harness::write_file(csv_path, csv.to_csv());
    std::printf("pair results written to %s\n", csv_path.c_str());
  }
  // Non-zero exit when the checker found protocol races, so the CI analysis
  // leg (and scripts) can gate on it without parsing the report.
  return races_found ? 3 : 0;
}
