// Generic pair-set execution: the one farm path under every query shape.
//
// run_rckalign() farms the all-vs-all pair list; run_one_vs_all() farms a
// query row; the alignment service (src/service) farms whatever mix of pair
// / one-vs-all / k-vs-all queries a round coalesced. All three are the same
// machine — a list of (a, b, method) comparisons over a shared structure
// table, dispatched to slaves through a FARM skeleton — so run_pairs() is
// that machine, extracted: callers describe the comparisons as PairSpec
// indices into a structure table and get back one row per spec, with the
// full farm/fault-tolerance option surface of run_rckalign available.
//
// The structure table is spans of pointers (not values) so a long-running
// caller can keep its database resident and append transient probes without
// copying; the optional `wires` table carries per-structure pre-serialized
// bytes (bio::serialize output) so job encoding skips re-serialization —
// payload bytes, and therefore the simulated run, are identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// Farm configuration for a pair-set run: the scheduling/resilience subset
/// of RckAlignOptions (no cache — pair sets are for live queries; cached
/// replay stays with run_rckalign). Prefer deriving this from a validated
/// rck::RunConfig via RunConfig::to_pairs_options().
struct PairsOptions {
  int slave_count = 47;
  scc::RuntimeConfig runtime{};
  bool lpt = false;
  /// Farm grant size; K > 1 hands each slave K jobs per round trip
  /// (bit-identical results). Plain farm only, as in RckAlignOptions.
  std::size_t batch = 1;
  bool fault_tolerant = false;
  rckskel::FaultTolerantFarmOptions ft{};
  bool master_ft = false;
  rckskel::MasterFtOptions mft{};
};

/// One completed comparison. `spec` is the index of the PairSpec that
/// requested it (stable across duplicates); rows arrive in collection
/// order, which is deterministic for a given configuration.
struct PairsRow {
  std::uint64_t spec = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  Method method = Method::TmAlign;
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  std::uint64_t work_cycles = 0;  ///< compute cycles the slave charged
  int worker = -1;                ///< slave rank that produced it

  bool operator==(const PairsRow&) const = default;
};

/// Outcome of one pair-set execution.
struct PairsRun {
  noc::SimTime makespan = 0;
  std::vector<PairsRow> rows;  ///< one per spec, in collection order
  std::vector<scc::CoreReport> core_reports;
  noc::NetworkStats network;
  rckskel::FarmReport farm_report{};  ///< populated under the FT farms
  /// Observability recorder (null unless opts.runtime.obs is active).
  std::shared_ptr<obs::Recorder> obs;
  /// Race checker (null unless opts.runtime.chk is active).
  std::shared_ptr<chk::Checker> chk;
  /// Distinct (a, b, method) comparisons pre-executed for this run; duplicate
  /// specs share one.
  std::size_t kernels = 0;
};

/// Execute every spec over the structure table on the simulated SCC. Each
/// distinct comparison runs once, on a pool of opts.runtime.host.threads host
/// workers, before the farm is simulated on the serial scheduler.
///
/// `structures` entries must be non-null and outlive the call. `wires`,
/// when non-empty, must parallel `structures`; a non-null wires[k] is the
/// bio::serialize() bytes of *structures[k] and is used verbatim when
/// encoding job payloads (null entries fall back to serializing on the
/// spot). Throws AlignError on out-of-range spec indices, a null structure
/// referenced by a spec, bad slave/batch counts, or a mismatched wires
/// table.
PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const bio::Bytes* const> wires = {});

}  // namespace rck::rckalign
