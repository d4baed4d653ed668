#include "rck/rckalign/app.hpp"

#include <numeric>
#include <optional>
#include <stdexcept>

#include "rck/noc/heatmap.hpp"
#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/error.hpp"
#include "rck/rckskel/skeletons.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

std::vector<std::pair<std::uint32_t, std::uint32_t>> all_pairs(std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  return pairs;
}


RckAlignRun run_rckalign(const std::vector<bio::Protein>& dataset,
                         const RckAlignOptions& opts) {
  if (dataset.size() < 2)
    throw AlignError("run_rckalign: need at least two chains");
  // master_ft adds a standby core after the last slave.
  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
  if (opts.slave_count < 1 || core_count > opts.runtime.chip.core_count())
    throw AlignError("run_rckalign: slave_count out of range for chip");
  if (opts.cache != nullptr && opts.cache->chain_count() != dataset.size())
    throw AlignError("run_rckalign: cache built for a different dataset");
  if (opts.batch == 0) throw AlignError("run_rckalign: batch must be >= 1");
  if (opts.batch > 1 && (opts.fault_tolerant || opts.master_ft))
    throw AlignError(
        "run_rckalign: batched grants require the plain farm (the "
        "fault-tolerant farms lease and retry individual jobs)");

  const PairCache* cache = opts.cache;
  RckAlignRun run;
  scc::SpmdRuntime rt(opts.runtime);
  const Method methods[] = {opts.method};
  const OutcomeTable outcomes =
      detail::pre_execute_all_pairs(dataset, methods, opts.runtime, cache);

  constexpr int kMaster = 0;
  const int standby_rank = opts.master_ft ? opts.slave_count + 1 : -1;

  // Role-local collection buffers. The master and the standby each decode
  // into their own vector inside the simulation (so obs spans land on the
  // right core lane); the buffers are merged after rt.run(), preferring the
  // standby's copy whenever a takeover produced one. A crashed master
  // unwinds before writing its buffer, so the merge never sees torn state.
  std::vector<PairRow> master_rows;
  rckskel::FarmReport master_rep{};
  std::optional<std::vector<PairRow>> standby_rows;
  rckskel::FarmReport standby_rep{};

  const auto program = [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);

    // Master and standby both run this: load every structure once from DRAM
    // (the paper's single loader process; the standby pre-loads so takeover
    // needs no disk round-trip) and build one job per unordered pair, FIFO
    // in (i, j) order as in the paper.
    const auto load_and_build = [&]() -> rckskel::Task {
      const obs::Handle h = comm.obs();
      std::uint64_t dataset_bytes = 0;
      for (const bio::Protein& p : dataset) dataset_bytes += p.wire_size();
      const noc::SimTime t_load0 = ctx.now();
      comm.charge_dram_read(dataset_bytes);
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_load_dataset, t_load0, ctx.now());
      }

      const noc::SimTime t_build0 = ctx.now();
      const auto pairs = all_pairs(dataset.size());
      std::vector<rckskel::Job> jobs;
      jobs.reserve(pairs.size());
      const scc::CoreTimingModel& model = ctx.timing();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const auto [i, j] = pairs[k];
        rckskel::Job job;
        job.id = k;
        job.payload = encode_pair_job(i, j, opts.method, dataset[i], dataset[j]);
        // Cost hint for LPT: exact when cached, else the O(L1*L2) proxy.
        job.cost_hint = cache != nullptr
                            ? cache->pair_cycles(i, j, model)
                            : static_cast<std::uint64_t>(dataset[i].size()) *
                                  dataset[j].size();
        jobs.push_back(std::move(job));
      }

      std::vector<int> slaves(static_cast<std::size_t>(opts.slave_count));
      std::iota(slaves.begin(), slaves.end(), 1);
      rckskel::Task task = rckskel::Task::make_par(slaves, std::move(jobs));
      if (h) {
        // Job construction is host-side work (free in simulated time), so
        // this phase span marks the boundary rather than a cost.
        h.span(obs::Lane::Core, h.ids().n_build_jobs, t_build0, ctx.now());
      }
      return task;
    };

    const auto decode_collected = [&](std::vector<rckskel::JobResult>& collected,
                                      std::vector<PairRow>& rows) {
      const obs::Handle h = comm.obs();
      const noc::SimTime t_decode0 = ctx.now();
      rows.reserve(collected.size());
      for (rckskel::JobResult& jr : collected) {
        const PairOutcome o = decode_outcome(std::move(jr.payload));
        rows.push_back(PairRow{o.i, o.j, o.tm_norm_a, o.tm_norm_b, o.rmsd,
                               o.seq_identity, o.aligned_length, jr.worker});
      }
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_decode_results, t_decode0, ctx.now());
        // Aggregate throughput over this core's elapsed time so far (the
        // final makespan differs only by teardown bookkeeping).
        const double secs = noc::to_seconds(ctx.now());
        if (secs > 0.0) {
          h.set_gauge(h.ids().app_pairs_per_sec,
                      static_cast<double>(rows.size()) / secs, ctx.now());
        }
      }
    };

    const auto master_ft_options = [&]() -> rckskel::MasterFtOptions {
      rckskel::MasterFtOptions m = opts.mft;
      m.ft = opts.ft;
      m.ft.base.lpt_order = opts.lpt;
      m.ft.standby_ue = standby_rank;
      return m;
    };

    if (comm.ue() == kMaster) {
      const rckskel::Task task = load_and_build();
      std::vector<rckskel::JobResult> collected;
      if (opts.master_ft) {
        collected =
            rckskel::farm_ft_master(comm, task, master_ft_options(), &master_rep);
      } else if (opts.fault_tolerant) {
        rckskel::FaultTolerantFarmOptions ftopts = opts.ft;
        ftopts.base.lpt_order = opts.lpt;
        collected = rckskel::farm_ft(comm, task, ftopts, &master_rep);
      } else {
        rckskel::FarmOptions fopts;
        fopts.lpt_order = opts.lpt;
        fopts.batch = opts.batch;
        collected = rckskel::farm(comm, task, fopts);
      }
      decode_collected(collected, master_rows);
    } else if (comm.ue() == standby_rank) {
      const rckskel::Task task = load_and_build();
      std::optional<std::vector<rckskel::JobResult>> collected =
          rckskel::farm_standby(comm, kMaster, task, master_ft_options(),
                                &standby_rep);
      if (collected) {
        standby_rows.emplace();
        decode_collected(*collected, *standby_rows);
      }
    } else if (opts.batch > 1) {
      rckskel::farm_slave_batch(comm, kMaster, detail::pair_batch_worker(outcomes));
    } else {
      const rckskel::Worker worker = detail::pair_worker(outcomes);
      if (opts.master_ft) {
        rckskel::MasterFtOptions m = master_ft_options();
        rckskel::farm_slave_ft(comm, kMaster, worker, m.ft);
      } else if (opts.fault_tolerant) {
        rckskel::FaultTolerantFarmOptions ftopts = opts.ft;
        ftopts.base.lpt_order = opts.lpt;
        rckskel::farm_slave_ft(comm, kMaster, worker, ftopts);
      } else {
        rckskel::farm_slave(comm, kMaster, worker);
      }
    }
  };

  run.makespan = rt.run(core_count, program);
  if (standby_rows.has_value()) {
    run.results = std::move(*standby_rows);
    run.farm_report = standby_rep;
  } else {
    run.results = std::move(master_rows);
    run.farm_report = master_rep;
  }
  run.core_reports = rt.core_reports();
  run.network = rt.network_stats();
  run.events = rt.events_fired();
  run.obs = rt.obs();
  run.chk = rt.chk();
  // obs forces the runtime's internal trace on (to derive per-core lanes),
  // so the trace/heatmap fields follow either switch.
  if (opts.runtime.enable_trace || run.obs != nullptr) {
    run.trace = rt.trace();
    run.link_heatmap = noc::render_link_heatmap(rt.network(), run.makespan);
  }
  return run;
}

noc::SimTime run_serial(const std::vector<bio::Protein>& dataset, const PairCache& cache,
                        const scc::CoreTimingModel& model, const scc::SccConfig& chip,
                        const noc::NetworkParams& net) {
  if (cache.chain_count() != dataset.size())
    throw AlignError("run_serial: cache/dataset mismatch");
  std::uint64_t dataset_bytes = 0;
  for (const bio::Protein& p : dataset) dataset_bytes += p.wire_size();
  // Same structure as the paper's modified serial program: load everything
  // once, then compare all pairs back to back on one core.
  noc::SimTime t = chip.dram_read_time(/*core=*/0, dataset_bytes, net.hop_latency);
  t += model.cycles_to_time(cache.total_cycles(model));
  return t;
}

}  // namespace rck::rckalign
