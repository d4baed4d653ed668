// Deterministic trace-driven load generator for the alignment service.
//
// generate_trace() turns a seed and a database into a query stream with the
// statistical shape of interactive structure-search load: Poisson arrivals
// (exponential interarrival gaps at rate_qps) and heavy-tailed query sizes
// (k-vs-all probe counts drawn from a truncated Pareto). The draw sequence
// is fixed — mt19937_64 with hand-rolled uniform doubles, never the
// standard-library distributions, whose outputs differ across standard
// libraries — so a (seed, options, database) triple produces the same trace
// on every platform. Benchmarks and the host-width identity tests both lean
// on that.
#pragma once

#include <cstdint>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/query.hpp"

namespace rck::service {

struct TraceOptions {
  std::uint64_t seed = 0x5eed;
  /// Queries in the trace.
  std::size_t queries = 32;
  /// Mean arrival rate, queries per *simulated* second (Poisson process).
  double rate_qps = 4.0;
  /// Relative weights of the query kinds (need not sum to 1).
  double pair_weight = 0.25;
  double one_vs_all_weight = 0.55;
  double k_vs_all_weight = 0.20;
  /// Pareto shape for k-vs-all probe counts: smaller alpha = heavier tail.
  double k_alpha = 1.5;
  /// Probe-count ceiling for one k-vs-all query.
  std::uint32_t k_max = 8;
  /// top_k applied to the *-vs-all kinds (0 = keep every hit).
  std::size_t top_k = 8;
};

/// Generate `opts.queries` queries with nondecreasing arrival timestamps.
/// Probes are bio::perturb() family members of uniformly chosen database
/// entries, named "trace/q<id>p<probe>". Throws ServiceError on an empty
/// database or degenerate options (non-positive rate, all-zero or negative
/// weights, k_alpha <= 0, k_max < 1).
std::vector<Query> generate_trace(const std::vector<bio::Protein>& database,
                                  const TraceOptions& opts = {});

}  // namespace rck::service
