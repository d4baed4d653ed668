// mcpsc_demo: the paper's future-work extension, running.
//
// Multi-criteria PSC: the same all-vs-all task evaluated under two different
// comparison methods *simultaneously* on one simulated SCC — TM-align on one
// group of slave cores, gapless best-offset RMSD on another — with a single
// master shipping the same structure data to both groups. Produces a
// consensus-style report: pairs ranked by TM-score with the second
// criterion's RMSD next to it.
#include <algorithm>
#include <cstdio>
#include <map>

#include "rck/bio/dataset.hpp"
#include "rck/rckalign/extensions.hpp"

int main() {
  using namespace rck;

  const std::vector<bio::Protein> dataset = bio::build_dataset(bio::tiny_spec());
  std::printf("MC-PSC demo: %zu chains, both criteria, one chip\n", dataset.size());

  rckalign::MultiMethodOptions opts;
  opts.groups = {{rckalign::Method::TmAlign, 5},  // heavy method gets most cores
                 {rckalign::Method::GaplessRmsd, 2}};
  const rckalign::MultiMethodRun run = rckalign::run_multi_method(dataset, opts);

  std::printf("simulated makespan: %.2f s (%d TM-align cores + %d RMSD cores)\n\n",
              noc::to_seconds(run.makespan), opts.groups[0].slaves,
              opts.groups[1].slaves);

  // Join the two result streams by pair.
  std::map<std::pair<std::uint32_t, std::uint32_t>, const rckalign::PairRow*> rmsd_by_pair;
  for (const rckalign::PairRow& r : run.results[1]) rmsd_by_pair[{r.i, r.j}] = &r;

  std::vector<rckalign::PairRow> ranked = run.results[0];
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return std::max(a.tm_norm_a, a.tm_norm_b) > std::max(b.tm_norm_a, b.tm_norm_b);
  });

  std::printf("%-14s %-14s %8s %12s %14s %s\n", "chain i", "chain j", "TM", "TM rmsd",
              "gapless rmsd", "verdict");
  for (const rckalign::PairRow& r : ranked) {
    const rckalign::PairRow* g = rmsd_by_pair.at({r.i, r.j});
    const double tm = std::max(r.tm_norm_a, r.tm_norm_b);
    const char* verdict = tm > 0.5 && g->rmsd < 6.0 ? "same fold (both criteria)"
                          : tm > 0.5               ? "same fold (TM only)"
                                                    : "different fold";
    std::printf("%-14s %-14s %8.3f %12.2f %14.2f %s\n", dataset[r.i].name().c_str(),
                dataset[r.j].name().c_str(), tm, r.rmsd, g->rmsd, verdict);
  }
  return 0;
}
