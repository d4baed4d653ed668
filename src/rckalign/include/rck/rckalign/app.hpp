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
#include <memory>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// Low-level option bundle for run_rckalign(): the pair-set farm options
/// plus the one comparison method every job runs. `cache` must be built for
/// the dataset.
///
/// Prefer the consolidated rck::RunConfig (rck/rck.hpp), which validates its
/// fields and lowers to this struct via to_options(); RckAlignOptions remains
/// as the underlying form and for callers that need no validation.
struct RckAlignOptions : PairsOptions {
  /// Comparison method for all jobs.
  Method method = Method::TmAlign;
};

/// One collected pairwise result.
struct PairRow {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  int worker = -1;  ///< slave rank that produced it

  bool operator==(const PairRow&) const = default;
};

/// Outcome of one simulated rckAlign execution.
struct RckAlignRun {
  noc::SimTime makespan = 0;  ///< simulated wall-clock of the whole task
  std::vector<PairRow> results;
  std::vector<scc::CoreReport> core_reports;
  noc::NetworkStats network;
  std::uint64_t events = 0;
  /// Recovery bookkeeping (populated when opts.fault_tolerant is set).
  rckskel::FarmReport farm_report{};
  /// Observability recorder (null unless opts.runtime.obs is active). Kept
  /// alive past the runtime so obs::flush and tests can read metrics +
  /// trace, and scc::render_gantt / noc::render_link_heatmap can draw the
  /// run from it.
  std::shared_ptr<obs::Recorder> obs;
  /// Race checker (null unless opts.runtime.chk is active). Kept alive past
  /// the runtime so callers can inspect reports() / write report_json().
  std::shared_ptr<chk::Checker> chk;
};

/// Run the all-vs-all task over `dataset` on the simulated SCC: run_pairs()
/// over all_pairs() in FIFO order, with the dataset as the structure table.
RckAlignRun run_rckalign(const std::vector<bio::Protein>& dataset,
                         const RckAlignOptions& opts);

/// Serial baseline: one core loads all structures then compares all pairs
/// back to back. Pure timing-model computation (no simulation needed).
noc::SimTime run_serial(const std::vector<bio::Protein>& dataset, const PairCache& cache,
                        const scc::CoreTimingModel& model, const scc::SccConfig& chip,
                        const noc::NetworkParams& net = {});

/// The unordered all-vs-all pair list (i < j), in the master's FIFO order.
std::vector<std::pair<std::uint32_t, std::uint32_t>> all_pairs(std::size_t n);

}  // namespace rck::rckalign
