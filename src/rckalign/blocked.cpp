#include "rck/rckalign/blocked.hpp"

#include <numeric>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/error.hpp"
#include "rck/rckskel/skeletons.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

std::vector<std::pair<std::uint32_t, std::uint32_t>> plan_blocks(
    const std::vector<bio::Protein>& dataset, std::uint64_t master_memory_bytes) {
  const std::uint32_t n = static_cast<std::uint32_t>(dataset.size());
  if (master_memory_bytes == 0) return {{0, n}};

  // Two blocks must be resident at once, so each block gets half the budget.
  const std::uint64_t per_block = master_memory_bytes / 2;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
  std::uint32_t begin = 0;
  std::uint64_t used = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t sz = dataset[i].wire_size();
    if (sz > per_block)
      throw AlignError(
          "plan_blocks: a single chain exceeds half the memory budget");
    if (used + sz > per_block && i > begin) {
      blocks.push_back({begin, i});
      begin = i;
      used = 0;
    }
    used += sz;
  }
  blocks.push_back({begin, n});
  return blocks;
}

BlockedRun run_rckalign_blocked(const std::vector<bio::Protein>& dataset,
                                const BlockedOptions& opts) {
  if (dataset.size() < 2)
    throw AlignError("run_rckalign_blocked: need at least two chains");
  if (opts.slave_count < 1 ||
      opts.slave_count + 1 > opts.runtime.chip.core_count())
    throw AlignError("run_rckalign_blocked: slave_count out of range");
  if (opts.cache != nullptr && opts.cache->chain_count() != dataset.size())
    throw AlignError("run_rckalign_blocked: cache/dataset mismatch");
  if (opts.batch == 0)
    throw AlignError("run_rckalign_blocked: batch must be >= 1");

  const auto blocks = plan_blocks(dataset, opts.master_memory_bytes);
  std::vector<std::uint64_t> block_bytes(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (std::uint32_t i = blocks[b].first; i < blocks[b].second; ++i)
      block_bytes[b] += dataset[i].wire_size();

  const PairCache* cache = opts.cache;
  BlockedRun run;
  run.blocks = static_cast<int>(blocks.size());
  scc::SpmdRuntime rt(opts.runtime);
  const std::vector<const bio::Protein*> structures = detail::structure_table(dataset);
  const OutcomeTable outcomes =
      detail::pre_execute_all_pairs(dataset, opts.runtime, cache);

  const auto program = [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    constexpr int kMaster = 0;
    if (comm.ue() == kMaster) {
      std::vector<int> slaves(static_cast<std::size_t>(opts.slave_count));
      std::iota(slaves.begin(), slaves.end(), 1);
      const scc::CoreTimingModel& model = ctx.timing();

      // Resident block set (at most two).
      const obs::Handle h = comm.obs();
      int res_a = -1, res_b = -1;
      auto ensure_loaded = [&](int blk) {
        if (blk == res_a || blk == res_b) return;
        const noc::SimTime t0 = comm.ctx().now();
        comm.charge_dram_read(block_bytes[static_cast<std::size_t>(blk)]);
        if (h) {
          h.add(h.ids().app_block_loads);
          h.span(obs::Lane::Core, h.ids().n_block_load, t0, comm.ctx().now(),
                 static_cast<std::uint64_t>(blk));
        }
        run.block_loads += 1;
        run.bytes_loaded += block_bytes[static_cast<std::size_t>(blk)];
        // Evict the block not needed (simple: replace the older slot).
        if (res_a < 0) res_a = blk;
        else if (res_b < 0) res_b = blk;
        else {  // evict res_a, shift
          res_a = res_b;
          res_b = blk;
        }
      };

      bool first_round = true;
      std::uint64_t next_job_id = 0;
      for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        for (std::size_t bj = bi; bj < blocks.size(); ++bj) {
          ensure_loaded(static_cast<int>(bi));
          if (bj != bi) ensure_loaded(static_cast<int>(bj));

          std::vector<PairSpec> specs;
          for (std::uint32_t i = blocks[bi].first; i < blocks[bi].second; ++i) {
            const std::uint32_t j_begin = bi == bj ? i + 1 : blocks[bj].first;
            for (std::uint32_t j = j_begin; j < blocks[bj].second; ++j)
              specs.push_back(PairSpec{i, j, Method::TmAlign});
          }
          if (specs.empty()) continue;
          std::vector<rckskel::Job> jobs =
              detail::make_pair_jobs(structures, specs, cache, model, next_job_id);
          next_job_id += specs.size();

          rckskel::FarmOptions fopts;
          fopts.lpt_order = opts.lpt;
          fopts.batch = opts.batch;
          fopts.wait_ready = first_round;
          fopts.send_terminate = false;
          first_round = false;
          const rckskel::Task task = rckskel::Task::make_par(slaves, std::move(jobs));
          for (rckskel::JobResult& jr : rckskel::farm(comm, task, fopts))
            run.results.push_back(detail::collected_row(jr));
        }
      }
      rckskel::terminate(comm, slaves);
    } else {
      rckskel::farm_slave(comm, kMaster, detail::pair_worker(outcomes));
    }
  };

  run.makespan = rt.run(opts.slave_count + 1, program);
  run.core_reports = rt.core_reports();
  return run;
}

}  // namespace rck::rckalign
