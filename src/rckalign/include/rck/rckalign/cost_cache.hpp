// Pre-executed comparison outcomes.
//
// A comparison's outcome and its cycle charge come from the pair's
// AlignStats, so they are the same whichever simulated slave runs it and
// whenever. Two tables exploit that:
//
//  - PairCache: the all-vs-all matrix of one dataset. The paper sweeps the
//    slave-core count from 1 to 47 over the *same* job set, so each pair is
//    computed once — real TM-align runs, producing real TM-scores and exact
//    work counters — and the simulator replays the recorded cost at every
//    sweep point.
//  - OutcomeTable: whatever (a, b, method) comparisons one farm run will
//    dispatch. Every farm driver builds one before its simulation starts,
//    so its slaves only look up an outcome and charge its cycles.
//
// Both are built on a host pool (rck/rckalign/host_pool.hpp) and store
// results by index, so host scheduling cannot affect any simulated outcome.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/core/stats.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/scc/timing.hpp"

namespace rck::rckalign {

/// Outcome + cost of one comparison. Fields a method does not produce stay
/// zero (gapless RMSD has no TM-scores; SeqNw fills only seq_identity and
/// aligned_length; CE carries its one TM-score in both normalizations).
struct PairEntry {
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  core::AlignStats stats;          ///< exact work counters of the alignment
  std::uint64_t footprint_bytes = 0;  ///< working-set estimate for the cache model
};

class PairCache {
 public:
  /// Run TM-align on every unordered pair of `dataset`.
  /// `host_threads` <= 0 means hardware_concurrency().
  static PairCache build(const std::vector<bio::Protein>& dataset, int host_threads = 0,
                         const core::TmAlignOptions& opts = {});

  std::size_t chain_count() const noexcept { return n_; }
  std::size_t pair_count() const noexcept { return entries_.size(); }

  /// Entry for the unordered pair {i, j}, i != j (order-insensitive).
  const PairEntry& at(std::uint32_t i, std::uint32_t j) const;

  /// Sum of compute cycles over all pairs under a timing model — the serial
  /// all-vs-all compute cost on that processor.
  std::uint64_t total_cycles(const scc::CoreTimingModel& model) const;

  /// Cycles for one pair under a timing model.
  std::uint64_t pair_cycles(std::uint32_t i, std::uint32_t j,
                            const scc::CoreTimingModel& model) const;

 private:
  static std::size_t tri_index(std::uint32_t i, std::uint32_t j, std::size_t n);
  std::size_t n_ = 0;
  std::vector<PairEntry> entries_;
};

/// The outcomes one farm run dispatches, keyed by (a, b, method) over the
/// run's structure table.
class OutcomeTable {
 public:
  /// Run every distinct key of `keys` once over `structures` on a pool of
  /// `host_threads` workers (<= 0: hardware_concurrency()), each with its
  /// own workspace. When `cache` is given, TM-align keys are served from it
  /// (order-insensitively, indices taken as dataset indices) instead of
  /// being run; it must outlive the table. A kernel's rck::Error leaves
  /// with its own code once every worker has joined.
  static OutcomeTable build(std::span<const bio::Protein* const> structures,
                            std::vector<PairSpec> keys, int host_threads,
                            const PairCache* cache = nullptr);

  /// Comparisons this table ran (cache hits excluded).
  std::size_t size() const noexcept { return keys_.size(); }

  /// Entry for `key`; throws AlignError when the table has none.
  const PairEntry& at(const PairSpec& key) const;

 private:
  std::vector<PairSpec> keys_;      ///< sorted and distinct
  std::vector<PairEntry> entries_;  ///< parallel to keys_
  const PairCache* cache_ = nullptr;
};

}  // namespace rck::rckalign
