// rckAlign: the paper's application.
//
// A master-slaves all-vs-all protein structure comparison on the simulated
// SCC, built with the rckskel FARM construct exactly as in the paper's
// Figures 3-4: the master (first core given to the program) loads every
// structure, creates one job per unordered pair, and dispatches jobs to
// slave cores, collecting results by round-robin polling; slaves loop
// (receive pair -> compare -> return scores) until TERMINATE. run_rckalign()
// is that farm over the all-pairs spec list, executed by run_pairs().
//
// Also here: the serial baseline runner (one core, structures pre-loaded,
// matching the paper's modified single-core TM-align).
#pragma once

#include <cstdint>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// Options of run_rckalign(): the pair-set farm options plus the one
/// comparison method every job runs. `cache` must be built for the dataset.
/// rck::run() builds one from its validated rck::RunConfig, which is itself
/// a PairsOptions, as {cfg, cfg.methods.front()}.
struct RckAlignOptions : PairsOptions {
  /// Comparison method for all jobs.
  Method method = Method::TmAlign;
};

/// Run the all-vs-all task over `dataset` on the simulated SCC: run_pairs()
/// over all_pairs() in FIFO order, with the dataset as the structure table.
/// Row `spec` k is the k-th pair of all_pairs().
PairsRun run_rckalign(const std::vector<bio::Protein>& dataset,
                      const RckAlignOptions& opts);

/// Serial baseline: one core loads all structures then compares all pairs
/// back to back. Pure timing-model computation (no simulation needed).
noc::SimTime run_serial(const std::vector<bio::Protein>& dataset, const PairCache& cache,
                        const scc::CoreTimingModel& model, const scc::SccConfig& chip,
                        const noc::NetworkParams& net = {});

/// The unordered all-vs-all pair list (i < j), in the master's FIFO order.
std::vector<std::pair<std::uint32_t, std::uint32_t>> all_pairs(std::size_t n);

}  // namespace rck::rckalign
