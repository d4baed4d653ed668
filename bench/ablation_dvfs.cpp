// Ablation: voltage/frequency islands (the SCC's signature DVFS feature).
//
// The SCC exposes per-tile frequency control; the paper runs every core at
// 800 MHz. This ablation asks two questions the hardware invited:
//
//  1. Heterogeneous slaves: if half the slave cores are clocked at 50%,
//     how badly does FIFO dispatch suffer, and does the FARM's dynamic
//     greedy dispatch absorb the imbalance (it should: slow cores simply
//     fetch fewer jobs)?
//  2. Master frequency: the master mostly moves data and polls — can it be
//     down-clocked to save power without hurting the makespan?
#include <cstdio>
#include <iostream>

#include "rck/harness/experiments.hpp"
#include "rck/harness/tables.hpp"
#include "rck/scc/energy.hpp"

namespace {

using namespace rck;

struct Scaled {
  double seconds = 0.0;
  double joules = 0.0;
};

Scaled run_scaled(const harness::ExperimentContext& ctx, std::vector<double> scales,
                  bool lpt = false) {
  rckalign::RckAlignOptions opts;
  opts.slave_count = 46;  // even split: 23 fast + 23 slow
  opts.runtime = harness::default_runtime();
  opts.runtime.core_freq_scale = scales;
  opts.cache = &ctx.ck34_cache;
  opts.lpt = lpt;
  const rckalign::PairsRun run = rckalign::run_rckalign(ctx.ck34, opts);
  const scc::EnergyReport energy =
      scc::estimate_energy(run.core_reports, run.makespan, scales);
  return {noc::to_seconds(run.makespan), energy.total_j};
}

}  // namespace

int main() {
  std::cout << "Ablation: SCC frequency islands (CK34, 46 slaves)\n";
  const harness::ExperimentContext ctx = harness::ExperimentContext::load_ck34_only();

  const Scaled uniform = run_scaled(ctx, {});

  // Half the slaves (ranks 24..46) at 50% clock: 34.5 core-equivalents.
  std::vector<double> hetero(47, 1.0);
  for (std::size_t r = 24; r < 47; ++r) hetero[r] = 0.5;
  const Scaled half_slow = run_scaled(ctx, hetero);
  const Scaled half_slow_lpt = run_scaled(ctx, hetero, /*lpt=*/true);

  // Master at 25% clock, slaves untouched.
  std::vector<double> slow_master(47, 1.0);
  slow_master[0] = 0.25;
  const Scaled master_quarter = run_scaled(ctx, slow_master);

  harness::TextTable table("Frequency-island scenarios");
  table.set_columns({"scenario", "makespan (s)", "vs uniform", "energy (kJ)",
                     "energy vs uniform"});
  auto row = [&](const char* name, const Scaled& s) {
    char rel[16], erel[16];
    std::snprintf(rel, sizeof rel, "%.3fx", s.seconds / uniform.seconds);
    std::snprintf(erel, sizeof erel, "%.3fx", s.joules / uniform.joules);
    char kj[24];
    std::snprintf(kj, sizeof kj, "%.2f", s.joules / 1000.0);
    table.add_row({name, harness::fmt_seconds(s.seconds), rel, kj, erel});
  };
  row("all cores 800 MHz", uniform);
  row("23 slaves at 400 MHz (FIFO)", half_slow);
  row("23 slaves at 400 MHz (LPT)", half_slow_lpt);
  row("master at 200 MHz", master_quarter);
  table.print(std::cout);

  // True work-conserving bound: total compute over aggregate capacity
  // (23 full-speed + 23 half-speed slaves = 34.5 core-equivalents).
  const scc::CoreTimingModel p54c = scc::CoreTimingModel::p54c_800();
  const double serial =
      noc::to_seconds(p54c.cycles_to_time(ctx.ck34_cache.total_cycles(p54c)));
  const double capacity_bound = serial / 34.5;
  std::printf("capacity lower bound for the heterogeneous case: %.1f s\n",
              capacity_bound);

  // Shapes: greedy dispatch alone lands within ~50% of the capacity bound
  // (the straggler tail grows when slow cores hold the last jobs), LPT
  // recovers to within ~10%, and the down-clocked master costs nothing
  // while saving energy.
  const bool ok = half_slow.seconds < 1.55 * capacity_bound &&
                  half_slow_lpt.seconds < 1.10 * capacity_bound &&
                  master_quarter.seconds < 1.05 * uniform.seconds &&
                  half_slow_lpt.seconds <= half_slow.seconds * 1.02 &&
                  master_quarter.joules < uniform.joules;
  std::cout << (ok ? "SHAPE OK: greedy dispatch absorbs heterogeneity; master can "
                     "be down-clocked\n"
                   : "SHAPE VIOLATION\n");
  return ok ? 0 : 1;
}
