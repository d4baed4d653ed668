// rckAlign: the paper's application.
//
// A master-slaves all-vs-all protein structure comparison on the simulated
// SCC, built with the rckskel FARM construct exactly as in the paper's
// Figures 3-4: the master (first core given to the program) loads every
// structure, creates one job per unordered pair, and dispatches jobs to
// slave cores, collecting results by round-robin polling; slaves loop
// (receive pair -> compare -> return scores) until TERMINATE.
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
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// Low-level option bundle for run_rckalign().
///
/// Prefer the consolidated rck::RunConfig (rck/rck.hpp), which validates its
/// fields and lowers to this struct via to_options(); RckAlignOptions remains
/// as the underlying form and for callers that need no validation.
struct RckAlignOptions {
  /// Number of slave cores (the paper sweeps 1..47); rank 0 is the master.
  int slave_count = 47;
  /// Chip / network / core-model configuration for the simulation.
  scc::RuntimeConfig runtime{};
  /// Pairwise results + costs computed up front, replayed for TM-align
  /// jobs. If null (or for other methods), the run pre-executes its
  /// comparisons on a host pool of runtime.host.threads workers before the
  /// simulation starts; either way slaves only replay charges.
  const PairCache* cache = nullptr;
  /// Comparison method for all jobs.
  Method method = Method::TmAlign;
  /// LPT (longest-first) job ordering; the paper used FIFO.
  bool lpt = false;
  /// Farm grant size: jobs handed to a slave per round trip. With K > 1 the
  /// plain farm sends BATCH frames, served by farm_slave_batch job by job,
  /// which cuts master round trips in simulated time. Per-job results and
  /// cycle charges are bit-identical to K = 1; only the dispatch schedule
  /// changes. Requires the plain farm: incompatible with fault_tolerant /
  /// master_ft, which lease and retry individual jobs.
  std::size_t batch = 1;
  /// Use the fault-tolerant farm (leases, retry, blacklist) instead of the
  /// paper's plain FARM. Required whenever runtime.faults is non-empty, and
  /// harmless without faults (simulated makespan is within lease-bookkeeping
  /// noise of the plain farm).
  bool fault_tolerant = false;
  /// Resilience knobs for the fault-tolerant farm (leases, retries,
  /// timeouts); base.lpt_order is overridden by `lpt` above.
  rckskel::FaultTolerantFarmOptions ft{};
  /// Survive the master too: run the checkpointed farm master (periodic
  /// snapshots + heartbeats replicated to a standby) with the standby on
  /// rank slave_count + 1. Implies fault_tolerant; requires
  /// slave_count + 2 cores on the chip. The final matrix is byte-identical
  /// to the fault-free run even when the master crashes mid-farm.
  bool master_ft = false;
  /// Checkpoint cadence and heartbeat knobs for master_ft. The embedded
  /// mft.ft is overwritten by `ft` above (with standby_ue auto-derived as
  /// slave_count + 1), so only the master-ft-specific fields matter here.
  rckskel::MasterFtOptions mft{};
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
  /// Activity trace (only populated when opts.runtime.enable_trace is set).
  std::vector<scc::TraceEvent> trace;
  /// Link-utilization heatmap (populated when opts.runtime.enable_trace).
  std::string link_heatmap;
  /// Recovery bookkeeping (populated when opts.fault_tolerant is set).
  rckskel::FarmReport farm_report{};
  /// Observability recorder (null unless opts.runtime.obs is active). Kept
  /// alive past the runtime so sinks and tests can read metrics + trace.
  std::shared_ptr<obs::Recorder> obs;
  /// Race checker (null unless opts.runtime.chk is active). Kept alive past
  /// the runtime so callers can inspect reports() / write report_json().
  std::shared_ptr<chk::Checker> chk;
};

/// Run the all-vs-all task over `dataset` on the simulated SCC: pre-execute
/// the comparisons on opts.runtime.host.threads host workers, then simulate
/// the farm on the serial scheduler.
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
