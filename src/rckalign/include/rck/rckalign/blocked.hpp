// Out-of-core (blocked) all-vs-all — the paper's closing future-work item:
// "building support for threading into the base library will be
// investigated, since this can be critical when the protein structure
// datasets are too large to be loaded into memory at once."
//
// When the database exceeds the master core's memory budget, the classic
// remedy is block decomposition of the pair matrix: split the chains into
// B blocks that fit two-at-a-time, and process block pairs (I, J) in a
// wavefront order, loading/evicting whole blocks. Every chain pair is
// still compared exactly once; the cost is re-reading blocks from DRAM
// (each block is loaded ~B/2 + 1 times instead of once). The simulator
// charges those reloads, so the memory/time trade-off is measurable —
// see bench_ablation_blocked.
#pragma once

#include "rck/rckalign/app.hpp"

namespace rck::rckalign {

struct BlockedOptions {
  int slave_count = 47;
  scc::RuntimeConfig runtime{};
  const PairCache* cache = nullptr;
  bool lpt = false;
  /// Master memory budget in bytes; chains are grouped into blocks such
  /// that any two blocks fit. 0 means "everything fits" (degenerates to
  /// one block = the plain algorithm).
  std::uint64_t master_memory_bytes = 0;
  /// Farm grant size (see PairsOptions::batch): K > 1 hands each slave
  /// K jobs per round trip. Bit-identical per-job results/cycles; 0 is
  /// invalid.
  std::size_t batch = 1;
};

struct BlockedRun {
  noc::SimTime makespan = 0;
  std::vector<PairRow> results;
  int blocks = 0;               ///< block count B chosen for the budget
  std::uint64_t block_loads = 0;  ///< total block loads (>= B when B > 1)
  std::uint64_t bytes_loaded = 0; ///< total DRAM traffic for structure data
  std::vector<scc::CoreReport> core_reports;
};

/// All-vs-all with a master memory budget. Results are identical to
/// run_rckalign (every unordered pair exactly once); only timing differs.
BlockedRun run_rckalign_blocked(const std::vector<bio::Protein>& dataset,
                                const BlockedOptions& opts);

/// The block partition chosen for a budget: chain index ranges [begin, end)
/// per block. Exposed for tests and for sizing studies.
std::vector<std::pair<std::uint32_t, std::uint32_t>> plan_blocks(
    const std::vector<bio::Protein>& dataset, std::uint64_t master_memory_bytes);

}  // namespace rck::rckalign
