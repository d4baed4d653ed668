// rck::service — a long-running alignment query engine over a resident
// structure database.
//
// Where rck::run() answers one offline all-vs-all batch and rck::run_query()
// answers one standalone query, the Service owns state that outlives any
// single request:
//
//   * a database of structures, each checked non-empty once at load time
//     (each round's job build serializes every structure it references
//     once);
//   * the lower-triangular all-vs-all similarity matrix over that database,
//     kept incrementally: adding one structure to an N-entry database costs
//     exactly N comparisons (one new matrix column), never a rebuild;
//   * an admission-controlled query queue with a simulated clock — queries
//     arrive at trace timestamps, wait in a bounded queue, and are coalesced
//     into farm rounds of at most max_queries_per_round each, so unrelated
//     queries share one master/slave round trip and one pre-execution pool.
//
// Every comparison — matrix build, matrix extension, query serving — runs
// through rckalign::run_pairs(), i.e. the same simulated-SCC farm as the
// offline paths, with the full RunConfig option surface (LPT, batching,
// fault tolerance, master failover). Configuration arrives exclusively as a
// validated rck::RunConfig; admission limits live in RunConfig::service.
//
// Observability: the Service owns one obs::Recorder for its whole lifetime
// (per-round runtime recorders are disabled so rounds cannot clobber each
// other). It records service.* counters, per-query latency and per-round
// histograms, and a queue-depth gauge; obs_json() is byte-stable, so service
// runs at different host-pool widths can be compared with cmp.
//
// Error taxonomy: "rck.service.invalid" (ServiceError) for bad databases or
// malformed queries at submit; "rck.service.overload" (OverloadError) when
// shedding is escalated to an error via ServiceLimits::fail_on_shed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rck/rck.hpp"

namespace rck::service {

/// Invalid database / query / trace input ("rck.service.invalid").
class ServiceError : public Error {
 public:
  explicit ServiceError(const std::string& message)
      : Error("rck.service.invalid", message) {}
};

/// Admission queue overflow escalated by ServiceLimits::fail_on_shed
/// ("rck.service.overload"). Without the escalation, shedding is a
/// per-query outcome (QueryResult::shed), not an exception.
class OverloadError : public Error {
 public:
  explicit OverloadError(const std::string& message)
      : Error("rck.service.overload", message) {}
};

/// One cell of the resident all-vs-all matrix: the comparison of entry i
/// (chain a) onto entry j (chain b), i < j, under the service's matrix
/// method (RunConfig::methods.front()).
struct MatrixCell {
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;

  bool operator==(const MatrixCell&) const = default;
};

/// Lifetime accounting, all in simulated terms.
struct Stats {
  std::uint64_t matrix_jobs = 0;  ///< comparisons spent on the matrix
  std::uint64_t query_jobs = 0;   ///< comparisons spent serving queries
  std::uint64_t submitted = 0;    ///< queries accepted by submit()
  std::uint64_t served = 0;       ///< queries completed with results
  std::uint64_t shed = 0;         ///< queries dropped by admission control
  std::uint64_t rounds = 0;       ///< coalesced farm rounds executed
  noc::SimTime busy = 0;          ///< simulated time inside query rounds
  noc::SimTime clock = 0;         ///< current simulated service clock (ps)

  bool operator==(const Stats&) const = default;
};

class Service {
 public:
  /// Take ownership of `database`, check every entry, and build the
  /// all-vs-all matrix eagerly in one farm run (C(N,2) comparisons).
  /// Throws ConfigError on an invalid `cfg`, ServiceError on an empty
  /// database entry. Matrix and query work both honor cfg's farm knobs;
  /// cfg.service carries the admission limits.
  Service(std::vector<bio::Protein> database, RunConfig cfg);

  // -- database ---------------------------------------------------------
  std::size_t size() const noexcept { return entries_.size(); }
  const bio::Protein& entry(std::size_t i) const { return entries_.at(i); }
  /// Matrix cell for entries i and j (i != j, any order; the cell is
  /// stored once for i < j).
  const MatrixCell& matrix_at(std::size_t i, std::size_t j) const;
  /// The raw lower-triangular matrix, column-major by the larger index:
  /// cell (i, j) with i < j lives at j*(j-1)/2 + i, so the cells of a
  /// newly added column are one contiguous tail.
  const std::vector<MatrixCell>& matrix() const noexcept { return matrix_; }

  /// Add one structure to the resident database. Issues exactly size()
  /// comparisons (the new matrix column) in one farm run — never a
  /// rebuild — and checks the entry like the constructor does.
  /// Returns the new entry's index. Offline matrix work does not advance
  /// the query clock.
  std::size_t add_structure(bio::Protein p);

  // -- queries ----------------------------------------------------------
  /// Validate and enqueue a query for the next drain(). Shape errors
  /// throw ServiceError ("rck.service.invalid") immediately; admission
  /// (queue capacity) is enforced at drain time, when the simulated clock
  /// says the query actually arrives. Returns the assigned query id.
  std::uint64_t submit(Query q);

  /// Run the simulated event loop until every submitted query is either
  /// served or shed; returns all results ordered by query id. Arrivals
  /// are admitted in (arrival, id) order against the service clock; each
  /// round coalesces up to max_queries_per_round waiting queries into one
  /// run_pairs() execution and advances the clock by its makespan.
  /// Overflowing the admission queue sheds the query loudly (stderr +
  /// service.shed counter + QueryResult::shed), or throws OverloadError
  /// when cfg.service.fail_on_shed is set.
  std::vector<QueryResult> drain();

  // -- accounting / observability ---------------------------------------
  const Stats& stats() const noexcept { return stats_; }
  const RunConfig& config() const noexcept { return cfg_; }
  /// Byte-stable metrics snapshot (obs::Snapshot::to_json) of the
  /// service-lifetime recorder.
  std::string obs_json() const;
  /// Write the recorder's configured obs files through obs::flush
  /// (metrics_path from RunConfig::runtime.obs; the service never writes a
  /// Chrome trace).
  void write_obs() const;
  const std::shared_ptr<obs::Recorder>& recorder() const noexcept {
    return rec_;
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    Query query;
  };

  void rebuild_tables();
  void shed_query(Pending&& p, std::vector<QueryResult>& out);

  RunConfig cfg_;
  rckalign::PairsOptions round_opts_;  ///< cfg_'s farm part; no cache, obs or chk
  std::vector<bio::Protein> entries_;
  std::vector<MatrixCell> matrix_;
  /// Pointer table over entries_, rebuilt whenever the database changes.
  std::vector<const bio::Protein*> db_ptrs_;

  std::vector<Pending> pending_;  ///< submitted, not yet arrived/admitted
  std::deque<Pending> waiting_;   ///< admitted, waiting for a round
  std::uint64_t next_id_ = 1;
  Stats stats_{};

  std::shared_ptr<obs::Recorder> rec_;
  obs::CounterId c_queries_{}, c_shed_{}, c_pair_jobs_{}, c_matrix_jobs_{},
      c_rounds_{};
  obs::HistId h_latency_{}, h_round_ps_{}, h_round_jobs_{};
  obs::GaugeId g_queue_depth_{};
};

}  // namespace rck::service
