#include "rck/rckalign/pairs.hpp"

#include <numeric>
#include <optional>
#include <utility>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/error.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

namespace {

void validate_inputs(std::span<const bio::Protein* const> structures,
                     std::span<const PairSpec> specs, const PairsOptions& opts,
                     std::span<const bio::Bytes* const> wires) {
  if (!wires.empty() && wires.size() != structures.size())
    throw AlignError("run_pairs: wires table must parallel structures");
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    if (s.a >= structures.size() || s.b >= structures.size())
      throw AlignError("run_pairs: spec " + std::to_string(k) +
                       " indexes outside the structure table");
    if (structures[s.a] == nullptr || structures[s.b] == nullptr)
      throw AlignError("run_pairs: spec " + std::to_string(k) +
                       " references a null structure");
  }
  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
  if (opts.slave_count < 1 || core_count > opts.runtime.chip.core_count())
    throw AlignError("run_pairs: slave_count out of range for chip");
  if (opts.batch == 0) throw AlignError("run_pairs: batch must be >= 1");
  if (opts.batch > 1 && (opts.fault_tolerant || opts.master_ft))
    throw AlignError(
        "run_pairs: batched grants require the plain farm (the "
        "fault-tolerant farms lease and retry individual jobs)");
}

}  // namespace

PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const bio::Bytes* const> wires) {
  validate_inputs(structures, specs, opts, wires);

  PairsRun run;
  scc::SpmdRuntime rt(opts.runtime);
  const OutcomeTable outcomes =
      OutcomeTable::build(structures, {specs.begin(), specs.end()},
                          detail::pool_threads(opts.runtime));
  run.kernels = outcomes.size();

  constexpr int kMaster = 0;
  const int standby_rank = opts.master_ft ? opts.slave_count + 1 : -1;

  // Role-local collection buffers, merged after rt.run() exactly as in
  // run_rckalign: the standby's copy wins whenever a takeover produced one.
  std::vector<PairsRow> master_rows;
  rckskel::FarmReport master_rep{};
  std::optional<std::vector<PairsRow>> standby_rows;
  rckskel::FarmReport standby_rep{};

  const auto program = [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);

    // Master (and standby) load the whole structure table once from DRAM —
    // the service's resident database plus any transient probes — then
    // build one job per spec, FIFO in spec order.
    const auto load_and_build = [&]() -> rckskel::Task {
      const obs::Handle h = comm.obs();
      std::uint64_t table_bytes = 0;
      for (const bio::Protein* p : structures)
        if (p != nullptr) table_bytes += p->wire_size();
      const noc::SimTime t_load0 = ctx.now();
      comm.charge_dram_read(table_bytes);
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_load_dataset, t_load0, ctx.now());
      }

      const noc::SimTime t_build0 = ctx.now();
      std::vector<rckskel::Job> jobs;
      jobs.reserve(specs.size());
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const PairSpec& s = specs[k];
        const bio::Protein& a = *structures[s.a];
        const bio::Protein& b = *structures[s.b];
        rckskel::Job job;
        job.id = k;
        // Pre-serialized wires (when the caller cached them) produce the
        // same payload bytes as serializing here, just without the work.
        const bio::Bytes* aw = wires.empty() ? nullptr : wires[s.a];
        const bio::Bytes* bw = wires.empty() ? nullptr : wires[s.b];
        job.payload = aw != nullptr && bw != nullptr
                          ? encode_pair_job(s.a, s.b, s.method, *aw, *bw)
                          : encode_pair_job(s.a, s.b, s.method, a, b);
        job.cost_hint = static_cast<std::uint64_t>(a.size()) * b.size();
        jobs.push_back(std::move(job));
      }

      std::vector<int> slaves(static_cast<std::size_t>(opts.slave_count));
      std::iota(slaves.begin(), slaves.end(), 1);
      rckskel::Task task = rckskel::Task::make_par(slaves, std::move(jobs));
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_build_jobs, t_build0, ctx.now());
      }
      return task;
    };

    const auto decode_collected = [&](std::vector<rckskel::JobResult>& collected,
                                      std::vector<PairsRow>& rows) {
      const obs::Handle h = comm.obs();
      const noc::SimTime t_decode0 = ctx.now();
      rows.reserve(collected.size());
      for (rckskel::JobResult& jr : collected) {
        const PairOutcome o = decode_outcome(std::move(jr.payload));
        rows.push_back(PairsRow{jr.id, o.i, o.j, o.method, o.tm_norm_a,
                                o.tm_norm_b, o.rmsd, o.seq_identity,
                                o.aligned_length, o.work_cycles, jr.worker});
      }
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_decode_results, t_decode0, ctx.now());
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

  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
  run.makespan = rt.run(core_count, program);
  if (standby_rows.has_value()) {
    run.rows = std::move(*standby_rows);
    run.farm_report = standby_rep;
  } else {
    run.rows = std::move(master_rows);
    run.farm_report = master_rep;
  }
  run.core_reports = rt.core_reports();
  run.network = rt.network_stats();
  run.obs = rt.obs();
  run.chk = rt.chk();
  return run;
}

}  // namespace rck::rckalign
