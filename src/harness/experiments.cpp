#include "rck/harness/experiments.hpp"

#include <chrono>

namespace rck::harness {

ExperimentContext ExperimentContext::load(int host_threads) {
  ExperimentContext ctx;
  ctx.ck34 = bio::build_dataset(bio::ck34_spec());
  ctx.rs119 = bio::build_dataset(bio::rs119_spec());
  ctx.ck34_cache = rckalign::PairCache::build(ctx.ck34, host_threads);
  ctx.rs119_cache = rckalign::PairCache::build(ctx.rs119, host_threads);
  return ctx;
}

ExperimentContext ExperimentContext::load_ck34_only(int host_threads) {
  ExperimentContext ctx;
  ctx.ck34 = bio::build_dataset(bio::ck34_spec());
  ctx.ck34_cache = rckalign::PairCache::build(ctx.ck34, host_threads);
  return ctx;
}

scc::RuntimeConfig default_runtime() {
  scc::RuntimeConfig cfg;
  cfg.chip = scc::default_scc();
  cfg.core_model = scc::CoreTimingModel::p54c_800();
  return cfg;
}

double rckalign_seconds(const std::vector<bio::Protein>& dataset,
                        const rckalign::PairCache& cache, int slave_cores, bool lpt) {
  rckalign::RckAlignOptions opts;
  opts.slave_count = slave_cores;
  opts.runtime = default_runtime();
  opts.cache = &cache;
  opts.lpt = lpt;
  const rckalign::PairsRun run = rckalign::run_rckalign(dataset, opts);
  return noc::to_seconds(run.makespan);
}

std::vector<Exp1Row> run_experiment1(const ExperimentContext& ctx,
                                     std::span<const int> core_counts) {
  std::vector<Exp1Row> rows;
  rows.reserve(core_counts.size());
  const scc::CoreTimingModel p54c = scc::CoreTimingModel::p54c_800();
  for (int n : core_counts) {
    Exp1Row row;
    row.slave_cores = n;
    const auto t0 = std::chrono::steady_clock::now();
    row.rckalign_s = rckalign_seconds(ctx.ck34, ctx.ck34_cache, n);
    row.host_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    row.distributed_s = noc::to_seconds(
        rckalign::run_distributed(ctx.ck34, ctx.ck34_cache, n, p54c).makespan);
    rows.push_back(row);
  }
  return rows;
}

BaselineTimes run_baselines(const ExperimentContext& ctx) {
  const scc::CoreTimingModel p54c = scc::CoreTimingModel::p54c_800();
  const scc::CoreTimingModel amd = scc::CoreTimingModel::amd_athlon_2400();
  const scc::SccConfig chip = scc::default_scc();
  BaselineTimes t;
  t.p54c_ck34 = noc::to_seconds(rckalign::run_serial(ctx.ck34, ctx.ck34_cache, p54c, chip));
  t.amd_ck34 = noc::to_seconds(rckalign::run_serial(ctx.ck34, ctx.ck34_cache, amd, chip));
  if (!ctx.rs119.empty()) {
    t.p54c_rs119 =
        noc::to_seconds(rckalign::run_serial(ctx.rs119, ctx.rs119_cache, p54c, chip));
    t.amd_rs119 =
        noc::to_seconds(rckalign::run_serial(ctx.rs119, ctx.rs119_cache, amd, chip));
  }
  return t;
}

std::vector<Exp2Row> run_experiment2(const ExperimentContext& ctx,
                                     std::span<const int> core_counts) {
  // The paper's speedups are relative to one slave core; run that first.
  const double ck34_base = rckalign_seconds(ctx.ck34, ctx.ck34_cache, 1);
  const double rs119_base =
      ctx.rs119.empty() ? 0.0 : rckalign_seconds(ctx.rs119, ctx.rs119_cache, 1);

  std::vector<Exp2Row> rows;
  rows.reserve(core_counts.size());
  for (int n : core_counts) {
    Exp2Row row;
    row.slave_cores = n;
    row.ck34_s = n == 1 ? ck34_base : rckalign_seconds(ctx.ck34, ctx.ck34_cache, n);
    row.ck34_speedup = ck34_base / row.ck34_s;
    if (!ctx.rs119.empty()) {
      row.rs119_s =
          n == 1 ? rs119_base : rckalign_seconds(ctx.rs119, ctx.rs119_cache, n);
      row.rs119_speedup = rs119_base / row.rs119_s;
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<SummaryRow> run_summary(const ExperimentContext& ctx) {
  const BaselineTimes base = run_baselines(ctx);
  std::vector<SummaryRow> rows;
  {
    SummaryRow r;
    r.dataset = "ck34";
    r.tmalign_amd_s = base.amd_ck34;
    r.tmalign_p54c_s = base.p54c_ck34;
    r.rckalign_scc_s = rckalign_seconds(ctx.ck34, ctx.ck34_cache, 47);
    rows.push_back(r);
  }
  if (!ctx.rs119.empty()) {
    SummaryRow r;
    r.dataset = "rs119";
    r.tmalign_amd_s = base.amd_rs119;
    r.tmalign_p54c_s = base.p54c_rs119;
    r.rckalign_scc_s = rckalign_seconds(ctx.rs119, ctx.rs119_cache, 47);
    rows.push_back(r);
  }
  return rows;
}

}  // namespace rck::harness
