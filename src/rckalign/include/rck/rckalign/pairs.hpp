// Generic pair-set execution: the one flat-farm program.
//
// The paper builds rckAlign from one rckskel FARM: a master loads the
// structures, turns pairs into jobs and farms them to slaves. Every flat
// farm in this code base is that program over a different job list, so
// run_pairs() is the only one: callers describe the comparisons as PairSpec
// indices into a structure table and get back one row per spec.
// run_rckalign() farms the all-vs-all pair list, run_multi_method() (MC-PSC)
// the same list once per method with the slaves partitioned between
// methods, run_query() a query's rows, and the alignment service
// (src/service) whatever mix of queries a round coalesced.
//
// The structure table is spans of pointers (not values) so a long-running
// caller can keep its database resident and append transient probes without
// copying. The master encodes every job payload from it with
// encode_pair_jobs(), serializing each structure a spec references once per
// run, however many jobs share it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// Farm configuration for a pair-set run. rck::RunConfig derives from it,
/// so a validated RunConfig is itself a PairsOptions.
struct PairsOptions {
  /// Number of slave cores (the paper sweeps 1..47); rank 0 is the master.
  int slave_count = 47;
  /// Chip / network / core-model configuration for the simulation.
  scc::RuntimeConfig runtime{};
  /// TM-align outcomes + exact costs of the structure table, computed up
  /// front (chain_count() must equal the table size, and TM-align specs
  /// must have a < b). TM-align specs are served from it instead of being
  /// pre-executed, and take its cycle count as their cost hint; every other
  /// spec keeps the L1*L2 proxy hint, cached or not.
  const PairCache* cache = nullptr;
  /// LPT (longest-first) job ordering by cost hint; the paper used FIFO.
  bool lpt = false;
  /// Farm grant size: jobs handed to a slave per round trip. With K > 1 the
  /// plain farm sends BATCH frames, which farm_slave serves job by job;
  /// this cuts master round trips in simulated time. Per-job results and
  /// cycle charges are bit-identical to K = 1; only the dispatch schedule
  /// changes. Requires the plain farm: incompatible with the leased farm
  /// (see fault_tolerant), which leases and retries individual jobs.
  std::size_t batch = 1;
  /// Use the fault-tolerant farm (leases, retry, blacklist) instead of the
  /// paper's plain FARM. Implied by master_ft and by a non-empty
  /// runtime.faults, which always run the leased farm; harmless without
  /// faults (simulated makespan is within lease-bookkeeping noise of the
  /// plain farm). A lease derived from the cost hint (ft.lease == 0) is
  /// only sized in cycles for cached TM-align specs; a run with any other
  /// spec instead gets one fixed lease of ft.lease_margin + ft.lease_slack
  /// x its longest job's simulated time.
  bool fault_tolerant = false;
  /// Resilience knobs for the fault-tolerant farm (leases, retries,
  /// timeouts); under master_ft standby_ue is overridden by the standby's
  /// rank, slave_count + 1. The farm options every role shares come from
  /// `lpt` and `batch` above.
  rckskel::FaultTolerantFarmOptions ft{};
  /// Survive the master too: run the checkpointed farm master (periodic
  /// snapshots + heartbeats replicated to a standby) with the standby on
  /// rank slave_count + 1. Implies fault_tolerant; requires
  /// slave_count + 2 cores on the chip. The final rows are byte-identical
  /// to the fault-free run even when the master crashes mid-farm.
  bool master_ft = false;
  /// Checkpoint cadence and heartbeat knobs for master_ft; its master,
  /// standby and slaves share `ft` above.
  rckskel::MasterFtOptions mft{};
};

/// One group of a partitioned run: the next `slaves` slave ranks serve the
/// next `specs` specs, and only those.
struct SlaveGroup {
  int slaves = 1;
  std::size_t specs = 0;
};

/// One completed comparison: the spec that requested it, its scores, the
/// cycles the slave charged for it and the slave that produced it. Every
/// farm driver reports its results as these rows. Fields run widest first,
/// so a row takes 72 bytes.
struct PairRow {
  /// Index of the PairSpec (the farm job id) that requested it; stable
  /// across duplicate specs.
  std::uint64_t spec = 0;
  std::uint64_t work_cycles = 0;  ///< compute cycles the slave charged
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t i = 0;  ///< the spec's chain a (structure table index)
  std::uint32_t j = 0;  ///< the spec's chain b
  std::uint32_t aligned_length = 0;
  int worker = -1;  ///< slave rank that produced it
  Method method = Method::TmAlign;

  bool operator==(const PairRow&) const = default;
};

/// Outcome of one flat-farm run. run_pairs() builds it; run_rckalign() and
/// rck::run() (as rck::RunResult) return it as it comes.
struct PairsRun {
  noc::SimTime makespan = 0;  ///< simulated wall-clock of the whole task
  /// One row per spec, in collection order, which is deterministic for a
  /// given configuration.
  std::vector<PairRow> results;
  std::vector<scc::CoreReport> core_reports;
  noc::NetworkStats network;
  std::uint64_t events = 0;  ///< simulation events fired
  /// Recovery bookkeeping; populated only by the leased farm.
  rckskel::FarmReport farm_report{};
  /// Observability recorder (null unless opts.runtime.obs is active). Kept
  /// alive past the runtime so obs::flush and tests can read metrics +
  /// trace, and scc::render_gantt / noc::render_link_heatmap can draw the
  /// run from it.
  std::shared_ptr<obs::Recorder> obs;
  /// Race checker (null unless opts.runtime.chk is active). Kept alive past
  /// the runtime so callers can inspect reports() / write report_json().
  std::shared_ptr<chk::Checker> chk;
  /// Distinct (a, b, method) comparisons pre-executed for this run; duplicate
  /// specs share one, and cached TM-align specs need none.
  std::size_t kernels = 0;
};

/// Execute every spec over the structure table on the simulated SCC. Each
/// distinct comparison runs once, on a pool of opts.runtime.host.threads host
/// workers, before the farm is simulated on the serial scheduler.
///
/// `structures` entries a spec references must be non-null; every entry
/// must outlive the call. Job payloads are built once per run with
/// encode_pair_jobs(). An empty `partition` lets every slave serve every
/// spec; otherwise its groups cover the slaves (ranks 1..slave_count) and
/// the specs in order. Throws AlignError on out-of-range spec indices, a
/// null structure referenced by a spec, bad slave/batch counts, a
/// mismatched cache or partition.
PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const SlaveGroup> partition = {});

}  // namespace rck::rckalign
