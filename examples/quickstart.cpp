// Quickstart: the two things this library does, in ~60 lines.
//
//  1. Align a pair of protein structures with TM-align (the unit operation).
//  2. Run an all-vs-all comparison task on the simulated 48-core SCC with
//     the rckAlign master-slaves application and read off the simulated
//     wall-clock.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "rck/bio/dataset.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rckalign/app.hpp"

int main() {
  using namespace rck;

  // --- 1. Pairwise alignment --------------------------------------------
  // Make a 150-residue synthetic protein and a structurally related variant
  // (real PDB files work too; see examples/pdb_compare.cpp).
  bio::Rng rng(2013);
  const bio::Protein a = bio::make_protein("demo/parent", 150, rng);
  const bio::Protein b = bio::perturb(a, "demo/variant", rng);

  const core::TmAlignResult r = core::tmalign(a, b);
  std::printf("TM-align %s vs %s:\n", a.name().c_str(), b.name().c_str());
  std::printf("  TM-score %.3f (norm. by %zu) / %.3f (norm. by %zu)\n", r.tm_norm_a,
              a.size(), r.tm_norm_b, b.size());
  std::printf("  aligned %d residues, RMSD %.2f A, seq identity %.0f%%\n",
              r.aligned_length, r.rmsd, 100.0 * r.seq_identity);
  std::printf("  (TM-score > 0.5 indicates the same fold)\n\n");

  // --- 2. All-vs-all on the simulated SCC --------------------------------
  // An 8-chain demo dataset (3 structural families), compared all-vs-all by
  // a master core that ships structure pairs to 7 slave cores over the
  // on-chip mesh.
  const std::vector<bio::Protein> dataset = bio::build_dataset(bio::tiny_spec());
  rckalign::RckAlignOptions opts;
  opts.slave_count = 7;

  const rckalign::PairsRun run = rckalign::run_rckalign(dataset, opts);
  std::printf("rckAlign on the simulated SCC: %zu chains, %zu pairs, %d slaves\n",
              dataset.size(), run.results.size(), opts.slave_count);
  std::printf("  simulated makespan: %.2f s (on 800 MHz P54C cores)\n",
              noc::to_seconds(run.makespan));
  std::printf("  mesh traffic: %llu messages, %.1f KB\n",
              static_cast<unsigned long long>(run.network.messages),
              static_cast<double>(run.network.total_bytes) / 1024.0);

  std::printf("  most similar pairs (TM-score):\n");
  std::vector<rckalign::PairRow> sorted = run.results;
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    return std::max(x.tm_norm_a, x.tm_norm_b) > std::max(y.tm_norm_a, y.tm_norm_b);
  });
  for (std::size_t k = 0; k < 5 && k < sorted.size(); ++k) {
    const auto& row = sorted[k];
    std::printf("    %-12s ~ %-12s TM=%.3f rmsd=%.2f (slave %d)\n",
                dataset[row.i].name().c_str(), dataset[row.j].name().c_str(),
                std::max(row.tm_norm_a, row.tm_norm_b), row.rmsd, row.worker);
  }
  return 0;
}
