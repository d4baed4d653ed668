// Ablation: the MC-PSC extension (paper Section V discussion / future work).
//
// "Different slave processes can be running different algorithms on the
// same data received from the master. Such an extension ... would require
// assessment of optimal strategies for the partitioning of the cores
// dedicated to different PSC algorithms, since the algorithm complexities
// may vary." This bench runs exactly that assessment: all-vs-all CK34 under
// both TM-align and gapless-RMSD simultaneously, sweeping how the 47 slave
// cores are split between the two methods.
#include <iostream>

#include "rck/harness/experiments.hpp"
#include "rck/harness/tables.hpp"
#include "rck/rckalign/extensions.hpp"

int main() {
  using namespace rck;
  std::cout << "Ablation: MC-PSC core partitioning (CK34, two methods, 47 slaves)\n";
  const harness::ExperimentContext ctx = harness::ExperimentContext::load_ck34_only();

  harness::TextTable table("MC-PSC: makespan vs core partition (seconds)");
  table.set_columns({"tm-align cores", "rmsd cores", "makespan", "note"});

  double best = 1e30;
  int best_tm = 0;
  // RMSD is far cheaper than TM-align, so the optimum gives most cores to
  // TM-align; sweep to find it.
  for (int tm_cores : {24, 32, 38, 42, 44, 45, 46}) {
    rckalign::MultiMethodOptions opts;
    opts.runtime = harness::default_runtime();
    opts.cache = &ctx.ck34_cache;
    opts.groups = {{rckalign::Method::TmAlign, tm_cores},
                   {rckalign::Method::GaplessRmsd, 47 - tm_cores}};
    const rckalign::MultiMethodRun run = rckalign::run_multi_method(ctx.ck34, opts);
    const double t = noc::to_seconds(run.makespan);
    if (t < best) {
      best = t;
      best_tm = tm_cores;
    }
    table.add_row({std::to_string(tm_cores), std::to_string(47 - tm_cores),
                   harness::fmt_seconds(t), ""});
  }
  table.print(std::cout);

  // Three methods at once (TM-align + CE + gapless RMSD): the partition the
  // paper asks about should follow each method's measured cost (CE is ~7x
  // TM-align per pair, the RMSD screen is ~40x cheaper than TM-align).
  harness::TextTable table3("Three-method MC-PSC on 47 slaves (seconds)");
  table3.set_columns({"partition (tm/ce/rmsd)", "makespan"});
  double best3 = 1e30;
  for (const auto& split : {std::array<int, 3>{16, 16, 15},
                            std::array<int, 3>{10, 36, 1},
                            std::array<int, 3>{6, 40, 1}}) {
    rckalign::MultiMethodOptions mopts;
    mopts.runtime = harness::default_runtime();
    mopts.cache = &ctx.ck34_cache;
    mopts.groups = {{rckalign::Method::TmAlign, split[0]},
                    {rckalign::Method::CeAlign, split[1]},
                    {rckalign::Method::GaplessRmsd, split[2]}};
    const double t =
        noc::to_seconds(rckalign::run_multi_method(ctx.ck34, mopts).makespan);
    best3 = std::min(best3, t);
    table3.add_row({std::to_string(split[0]) + "/" + std::to_string(split[1]) + "/" +
                        std::to_string(split[2]),
                    harness::fmt_seconds(t)});
  }
  table3.print(std::cout);

  // Compare with running the two criteria back to back on all 47 cores.
  const double tm_alone = harness::rckalign_seconds(ctx.ck34, ctx.ck34_cache, 47);
  std::cout << "Best partition: " << best_tm << " TM-align / " << (47 - best_tm)
            << " RMSD cores -> " << harness::fmt_seconds(best) << " s\n"
            << "(TM-align alone on 47 cores: " << harness::fmt_seconds(tm_alone)
            << " s; MC-PSC adds the second criterion for "
            << harness::fmt_seconds(best - tm_alone) << " s extra)\n";

  // Shape: heavily skewed optimum (TM-align needs most cores).
  const bool ok = best_tm >= 38;
  std::cout << (ok ? "SHAPE OK: optimum gives most cores to the heavy method\n"
                   : "SHAPE VIOLATION\n");
  return ok ? 0 : 1;
}
