#include "rck/rckalign/pairs.hpp"

#include <algorithm>
#include <iterator>
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
                     bool leased, std::span<const SlaveGroup> partition) {
  if (opts.cache != nullptr && opts.cache->chain_count() != structures.size())
    throw AlignError("run_pairs: cache built for a different structure table");
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    if (s.a >= structures.size() || s.b >= structures.size())
      throw AlignError("run_pairs: spec " + std::to_string(k) +
                       " indexes outside the structure table");
    if (structures[s.a] == nullptr || structures[s.b] == nullptr)
      throw AlignError("run_pairs: spec " + std::to_string(k) +
                       " references a null structure");
    if (opts.cache != nullptr && s.method == Method::TmAlign && s.a >= s.b)
      throw AlignError("run_pairs: spec " + std::to_string(k) +
                       " is a cached TM-align comparison with a >= b");
  }
  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
  if (opts.slave_count < 1 || core_count > opts.runtime.chip.core_count())
    throw AlignError("run_pairs: slave_count out of range for chip");
  if (opts.batch == 0) throw AlignError("run_pairs: batch must be >= 1");
  if (opts.batch > 1 && leased)
    throw AlignError(
        "run_pairs: batched grants require the plain farm (the "
        "fault-tolerant farms lease and retry individual jobs)");
  if (partition.empty()) return;
  int slaves = 0;
  std::size_t covered = 0;
  for (const SlaveGroup& g : partition) {
    if (g.slaves < 1) throw AlignError("run_pairs: empty slave group");
    slaves += g.slaves;
    covered += g.specs;
  }
  if (slaves != opts.slave_count || covered != specs.size())
    throw AlignError("run_pairs: partition must cover every slave and spec");
}

/// The master's task tree: one Par leaf over every slave, or one Par leaf
/// per partition group under a Par root.
rckskel::Task make_task(std::vector<rckskel::Job> jobs, int slave_count,
                        std::span<const SlaveGroup> partition) {
  if (partition.empty()) {
    std::vector<int> slaves(static_cast<std::size_t>(slave_count));
    std::iota(slaves.begin(), slaves.end(), 1);
    return rckskel::Task::make_par(std::move(slaves), std::move(jobs));
  }
  std::vector<rckskel::Task> children;
  int next_ue = 1;
  auto next_job = std::make_move_iterator(jobs.begin());
  for (const SlaveGroup& g : partition) {
    std::vector<int> ues(static_cast<std::size_t>(g.slaves));
    std::iota(ues.begin(), ues.end(), next_ue);
    next_ue += g.slaves;
    const auto end = next_job + static_cast<std::ptrdiff_t>(g.specs);
    children.push_back(rckskel::Task::make_par(
        std::move(ues), std::vector<rckskel::Job>(next_job, end)));
    next_job = end;
  }
  return rckskel::Task::make_group(rckskel::Task::Mode::Par, {}, std::move(children));
}

}  // namespace

PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const SlaveGroup> partition) {
  // The farm leases jobs under fault_tolerant, under master_ft and whenever
  // the fault plan is non-empty: only leases survive a planned fault.
  const bool leased =
      opts.fault_tolerant || opts.master_ft || !opts.runtime.faults.empty();
  validate_inputs(structures, specs, opts, leased, partition);

  PairsRun run;
  scc::SpmdRuntime rt(opts.runtime);
  const OutcomeTable outcomes =
      OutcomeTable::build(structures, {specs.begin(), specs.end()},
                          detail::pool_threads(opts.runtime), opts.cache);
  run.kernels = outcomes.size();

  // Farm and lease options, shared by master, standby and slaves (standby_ue
  // is filled in below under master_ft). With ft.lease == 0 the master
  // derives each lease from the job's cost hint read as cycles, but only a
  // cached TM-align spec carries cycles (detail::has_cycle_hint): the L1*L2
  // proxy of any other spec predicts microseconds for a job of seconds, and
  // every lease would expire until the job exhausted max_attempts. A run
  // with any such spec gets one fixed lease sized by its longest job.
  rckskel::FarmOptions fopts;
  fopts.lpt_order = opts.lpt;
  fopts.batch = opts.batch;
  rckskel::FaultTolerantFarmOptions ft = opts.ft;
  if (leased && ft.lease == 0 &&
      std::any_of(specs.begin(), specs.end(), [&](const PairSpec& s) {
        return !detail::has_cycle_hint(s, opts.cache);
      })) {
    noc::SimTime longest = 0;
    for (const PairSpec& s : specs) {
      const PairEntry& e = outcomes.at(s);
      longest = std::max(longest,
                         opts.runtime.core_model.time(e.stats, e.footprint_bytes));
    }
    ft.lease = ft.lease_margin +
               static_cast<noc::SimTime>(ft.lease_slack * static_cast<double>(longest));
  }

  constexpr int kMaster = 0;
  const int standby_rank = opts.master_ft ? opts.slave_count + 1 : -1;
  if (opts.master_ft) ft.standby_ue = standby_rank;

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

    // Master and standby both run this: load the whole structure table once
    // from DRAM (the paper's single loader process; the standby pre-loads
    // so takeover needs no disk round-trip), then build one job per spec,
    // FIFO in spec order.
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
      rckskel::Task task = make_task(
          detail::make_pair_jobs(structures, specs, opts.cache, ctx.timing()),
          opts.slave_count, partition);
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
      for (rckskel::JobResult& jr : collected) rows.push_back(detail::collected_row(jr));
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

    if (comm.ue() == kMaster) {
      const rckskel::Task task = load_and_build();
      std::vector<rckskel::JobResult> collected;
      if (opts.master_ft) {
        collected =
            rckskel::farm_ft_master(comm, task, fopts, ft, opts.mft, &master_rep);
      } else if (leased) {
        collected = rckskel::farm_ft(comm, task, fopts, ft, &master_rep);
      } else {
        collected = rckskel::farm(comm, task, fopts);
      }
      decode_collected(collected, master_rows);
    } else if (comm.ue() == standby_rank) {
      const rckskel::Task task = load_and_build();
      std::optional<std::vector<rckskel::JobResult>> collected =
          rckskel::farm_standby(comm, kMaster, task, fopts, ft, opts.mft, &standby_rep);
      if (collected) {
        standby_rows.emplace();
        decode_collected(*collected, *standby_rows);
      }
    } else {
      const rckskel::Worker worker = detail::pair_worker(outcomes);
      if (leased) {
        rckskel::farm_slave_ft(comm, kMaster, worker, fopts, ft);
      } else {
        rckskel::farm_slave(comm, kMaster, worker, fopts);
      }
    }
  };

  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
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
  return run;
}

}  // namespace rck::rckalign
