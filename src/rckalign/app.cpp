#include "rck/rckalign/app.hpp"

#include "rck/rckalign/error.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

std::vector<std::pair<std::uint32_t, std::uint32_t>> all_pairs(std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  return pairs;
}

PairsRun run_rckalign(const std::vector<bio::Protein>& dataset,
                      const RckAlignOptions& opts) {
  if (dataset.size() < 2)
    throw AlignError("run_rckalign: need at least two chains");
  return run_pairs(detail::structure_table(dataset),
                   detail::all_pair_specs(dataset.size(), opts.method), opts);
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
