// One-vs-all PSC: the paper's Algorithm 1.
//
// "A typical task in bioinformatics is comparison of the structure of a
// protein with a database of known protein structures, one-to-many PSC."
// Algorithm 1 (adapted from Shah et al.) loops over methods M and database
// entries D, dispatching each (query, entry, method) comparison to a free
// node. This module implements exactly that on the simulated SCC: the
// master holds the database and the query, creates one job per (entry,
// method), and farms them to slaves; results come back as a ranked hit
// list — "structurally similar proteins are ranked higher."
#pragma once

#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"

namespace rck::rckalign {

/// DEPRECATED option bundle, kept as a thin compatibility surface for one
/// release: run_one_vs_all() is now a shim over the generic run_pairs()
/// layer (pairs.hpp). New code should build an rck::Query and go through
/// rck::run_query() with a validated rck::RunConfig — one config path for
/// pair, one-vs-all and service submission alike.
struct OneVsAllOptions {
  int slave_count = 47;
  scc::RuntimeConfig runtime{};
  /// Methods to run per database entry (Algorithm 1's set M).
  std::vector<Method> methods{Method::TmAlign};
  bool lpt = false;
  /// Farm grant size (see PairsOptions::batch): K > 1 hands each slave
  /// K jobs per round trip. Bit-identical per-job results/cycles; 0 is
  /// invalid.
  std::size_t batch = 1;
};

/// One database hit under one method.
struct Hit {
  std::uint32_t entry = 0;  ///< database index
  Method method = Method::TmAlign;
  double tm_query = 0.0;  ///< TM normalized by query length (ranking key)
  double tm_entry = 0.0;  ///< TM normalized by entry length
  double rmsd = 0.0;
  double seq_identity = 0.0;  ///< ranking key for Method::SeqNw
  std::uint32_t aligned_length = 0;
  int worker = -1;
};

struct OneVsAllRun {
  noc::SimTime makespan = 0;
  /// Hits per method, each sorted by descending similarity (TM-score for
  /// TM-align; ascending RMSD for the gapless method).
  std::vector<std::vector<Hit>> ranked;  ///< indexed like options.methods
  std::vector<scc::CoreReport> core_reports;
  noc::NetworkStats network;
};

/// Ranking keys for one hit; `entry` is the deterministic tie-breaker.
struct HitKey {
  double tm_query = 0.0;
  double seq_identity = 0.0;
  double rmsd = 0.0;
  std::uint32_t entry = 0;
};

/// The per-method ranking rule: does `x` outrank `y`? TM-align and CE rank
/// by descending query-normalized TM-score, SeqNw by descending sequence
/// identity, the gapless method by ascending RMSD; ties break by ascending
/// entry index. Shared by the legacy shim and rck::run_query so both
/// surfaces order hits identically.
bool outranks(Method method, const HitKey& x, const HitKey& y) noexcept;

/// Compare `query` against every chain of `database` under every method.
/// Throws AlignError on empty inputs or bad slave counts.
///
/// DEPRECATED shim over run_pairs(); prefer rck::run_query(). Kept for one
/// release — results, ranking and the simulated schedule are unchanged.
OneVsAllRun run_one_vs_all(const bio::Protein& query,
                           const std::vector<bio::Protein>& database,
                           const OneVsAllOptions& opts);

}  // namespace rck::rckalign
