// rck umbrella API.
//
// One include, one configuration object, one entry point:
//
//   #include "rck/rck.hpp"
//
//   rck::RunConfig cfg;
//   cfg.with_slaves(47).with_lpt(true).with_trace("trace.json");
//   rck::RunResult out = rck::run(dataset, cfg);
//
// RunConfig is the flat farm's own options, rckalign::PairsOptions (slaves,
// cache, LPT, batch, the fault-tolerant and master-failover farms, and the
// scc::RuntimeConfig that holds the chip, the fault plan, the host pool,
// obs and chk), plus the settings no farm reads: the methods, the service's
// admission limits and the model checker's switches. It validates the
// combination as a whole (validate() returns typed issues; validated()
// throws rck::ConfigError). Each entry point reads the part it needs:
// rck::run() ignores `service` and `mc`, run_query() ignores `cache` and
// `service`, the service ignores `cache`, and mc_explore() / mc_replay()
// read `mc`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rck/chk/chk.hpp"
#include "rck/error.hpp"
#include "rck/mc/mc.hpp"
#include "rck/mc/witness.hpp"
#include "rck/obs/obs.hpp"
#include "rck/obs/sink.hpp"
#include "rck/query.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck {

/// One problem found by RunConfig::validate(): which field (dotted path,
/// e.g. "runtime.host.threads") and what is wrong with it.
struct ConfigIssue {
  std::string field;
  std::string message;

  bool operator==(const ConfigIssue&) const = default;
};

/// Thrown by RunConfig::validated() / rck::run() on an invalid
/// configuration. what() lists every issue, one per line.
class ConfigError : public Error {
 public:
  explicit ConfigError(std::vector<ConfigIssue> issues);

  const std::vector<ConfigIssue>& issues() const noexcept { return issues_; }

 private:
  std::vector<ConfigIssue> issues_;
};

/// Admission-control limits for the alignment service (rck::service).
/// Validated as part of RunConfig::validate() so service misconfiguration
/// surfaces through the same ConfigError diagnostics as everything else.
struct ServiceLimits {
  /// Bounded admission queue: arrivals beyond this many waiting queries
  /// are shed (loudly — counted, logged, and returned with shed = true).
  std::size_t queue_capacity = 64;
  /// Queries coalesced into one farm round, at most.
  std::size_t max_queries_per_round = 8;
  /// Escalate shedding from a per-query outcome to OverloadError
  /// ("rck.service.overload").
  bool fail_on_shed = false;

  bool operator==(const ServiceLimits&) const = default;
};

/// Bounded systematic schedule exploration (rck::mc) switches, consumed by
/// rck::mc_explore() / rck::mc_replay(). The canonical (all-zeros) schedule
/// is bit-identical to an mc-off run.
struct McConfig {
  /// Maximum number of schedules explored (0 = no bound: run until the
  /// pruned schedule tree is exhausted, however long that takes).
  std::uint64_t bound = 4096;
  /// Non-empty: replay this saved witness instead of exploring.
  std::string replay_path;
  /// Non-empty: save the first violating schedule's witness here.
  std::string witness_path;
  /// Free-form label stamped into witnesses ("plain-farm", "master-ft", ...).
  std::string config_label;

  bool operator==(const McConfig&) const = default;
};

/// The consolidated run configuration: the flat farm's PairsOptions, which
/// every farm entry point reads as they stand, plus the settings no farm
/// reads. Plain struct with chainable with_*() setters; every field may
/// also be assigned directly. Observability and the race checker live in
/// `runtime.obs` and `runtime.chk`, beside `runtime.faults` and
/// `runtime.host`.
struct RunConfig : rckalign::PairsOptions {
  /// Declared so that RunConfig{} value-initializes: list-initializing the
  /// aggregate's PairsOptions base draws a false -Wmaybe-uninitialized from
  /// GCC 12 at -O2.
  RunConfig() = default;

  /// Comparison methods, in ranking-slot order. The all-vs-all rck::run()
  /// uses exactly one; run_query() and the service fan a query out across
  /// all of them (Algorithm 1's set M). Must be non-empty.
  std::vector<rckalign::Method> methods{rckalign::Method::TmAlign};
  /// Admission control for rck::service::Service; ignored by rck::run()
  /// and run_query(), but validated unconditionally so one validated
  /// RunConfig can be handed to any entry point.
  ServiceLimits service{};
  /// Systematic schedule exploration (rck::mc) switches; used by
  /// rck::mc_explore() / rck::mc_replay(), ignored by rck::run().
  McConfig mc{};

  // -- chainable setters ------------------------------------------------
  RunConfig& with_slaves(int n) { slave_count = n; return *this; }
  RunConfig& with_method(rckalign::Method m) { methods = {m}; return *this; }
  RunConfig& with_methods(std::vector<rckalign::Method> ms) { methods = std::move(ms); return *this; }
  RunConfig& with_queue_capacity(std::size_t n) { service.queue_capacity = n; return *this; }
  RunConfig& with_max_queries_per_round(std::size_t n) { service.max_queries_per_round = n; return *this; }
  RunConfig& with_fail_on_shed(bool on = true) { service.fail_on_shed = on; return *this; }
  RunConfig& with_lpt(bool on = true) { lpt = on; return *this; }
  RunConfig& with_batch(std::size_t k) { batch = k; return *this; }
  RunConfig& with_cache(const rckalign::PairCache* c) { cache = c; return *this; }
  RunConfig& with_fault_tolerance(bool on = true) { fault_tolerant = on; return *this; }
  RunConfig& with_master_ft(bool on = true) { master_ft = on; return *this; }
  RunConfig& with_master_ft(const rckskel::MasterFtOptions& o) { master_ft = true; mft = o; return *this; }
  /// A non-empty plan runs the leased (fault-tolerant) farm.
  RunConfig& with_faults(const scc::FaultPlan& plan) { runtime.faults = plan; return *this; }
  /// Host workers that pre-execute the run's comparisons before the serial
  /// simulation starts (1 = inline on the calling thread). Wall-clock only.
  RunConfig& with_host_threads(int threads) { runtime.host.threads = threads; return *this; }
  /// Observability: off by default (zero simulated + negligible host
  /// overhead, see DESIGN.md "Observability").
  RunConfig& with_obs(const obs::Config& o) { runtime.obs = o; return *this; }
  RunConfig& with_trace(std::string path) { runtime.obs.trace_path = std::move(path); return *this; }
  RunConfig& with_metrics(std::string path) { runtime.obs.metrics_path = std::move(path); return *this; }
  RunConfig& with_collect(bool on = true) { runtime.obs.enable = on; return *this; }
  /// Race detector (rck::chk): off by default. A clean chk-enabled run is
  /// bit-identical (cycles, alignments, obs bytes) to a chk-disabled one.
  RunConfig& with_chk(bool on = true) { runtime.chk.enable = on; return *this; }
  RunConfig& with_chk_seed(std::uint64_t seed) { runtime.chk.schedule_seed = seed; return *this; }
  RunConfig& with_chk_report(std::string path) { runtime.chk.report_path = std::move(path); return *this; }
  RunConfig& with_mc_bound(std::uint64_t n) { mc.bound = n; return *this; }
  RunConfig& with_mc_replay(std::string path) { mc.replay_path = std::move(path); return *this; }
  RunConfig& with_mc_witness(std::string path) { mc.witness_path = std::move(path); return *this; }
  RunConfig& with_mc_label(std::string label) { mc.config_label = std::move(label); return *this; }
  RunConfig& with_protocol_mutant(rckskel::ProtocolMutant m) { ft.mutant = m; return *this; }

  /// Check the whole configuration; empty result = valid. Dataset-dependent
  /// checks (cache/dataset match, >= 2 chains) stay in the rckalign
  /// drivers, which see the dataset.
  std::vector<ConfigIssue> validate() const;

  /// validate(), throwing ConfigError ("rck.config.invalid") on any issue.
  /// Returns *this so call sites can chain into run().
  const RunConfig& validated() const;
};

/// The flat farm's outcome under the umbrella API (alias, not a wrapper: the
/// run struct already carries reports and the obs recorder).
using RunResult = rckalign::PairsRun;

/// Validate `cfg`, execute the all-vs-all task, write the configured obs
/// files (obs::flush) and write the chk report when
/// cfg.runtime.chk.report_path is set.
RunResult run(const std::vector<bio::Protein>& dataset, const RunConfig& cfg);

/// Outcome of one bounded exploration (or replay) of `cfg`'s schedule tree.
struct McOutcome {
  /// Schedules actually run (1 for a replay).
  std::uint64_t schedules = 0;
  /// True when the pruned schedule tree was fully explored (the run was
  /// exhaustive); false when cfg.mc.bound stopped it early.
  bool exhausted = false;
  /// Deepest decision vector seen across all runs.
  std::size_t max_decisions = 0;
  /// FNV-1a digest of the canonical (serial, all-zeros) schedule's result
  /// matrix; every other schedule must reproduce it bit-identically.
  std::uint64_t canonical_digest = 0;
  /// First violation found, if any; empty = every explored schedule clean.
  std::optional<mc::Violation> violation;
  /// Replayable witness of the violating schedule (meaningful only when
  /// `violation` is set; also saved to cfg.mc.witness_path when given).
  mc::Witness witness;
};

/// Systematically explore same-instant scheduling choices of the simulated
/// run: depth-first over CoreTie/EventTie decision points with sleep-set
/// pruning of independent choices, at most cfg.mc.bound schedules. Every
/// schedule's protocol-event log is checked against the invariant suite
/// (lease safety, no re-execution, checkpoint monotonicity), the run must
/// complete (deadlock freedom), and its result matrix must be bit-identical
/// to the canonical schedule's.
McOutcome mc_explore(const std::vector<bio::Protein>& dataset,
                     const RunConfig& cfg);

/// Deterministically re-run one witnessed schedule (cfg.mc.replay_path) and
/// re-derive its violation. Throws mc::ReplayError when the run diverges
/// from the scripted decision vector — i.e. the witness does not belong to
/// this configuration/dataset.
McOutcome mc_replay(const std::vector<bio::Protein>& dataset,
                    const RunConfig& cfg);

/// Query-shape checks in the RunConfig::validate() idiom: probe counts vs
/// kind, non-empty probes, database presence for the *-vs-all kinds.
/// Fields are dotted "query.*" paths. Shared by run_query() and the
/// service's submit-time admission checks.
std::vector<ConfigIssue> validate_query(const Query& q,
                                        std::size_t database_size);

/// Append the comparisons of `q` to `specs`, methods-major in the order of
/// `methods` (Algorithm 1's loop order generalized to k probes). A Pair
/// query gets one spec per method, its first probe onto its second; the
/// other kinds get every probe x entry, probe-major. Probes sit in the
/// structure table from `probe_base` on, database entries at
/// [0, database_size). The probe is always chain `a`, so tm_query is
/// normalized by probe length. Shared by run_query() and the service.
void append_query_specs(const Query& q,
                        std::span<const rckalign::Method> methods,
                        std::uint32_t probe_base, std::size_t database_size,
                        std::vector<rckalign::PairSpec>& specs);

/// The hit reported by `row`, a result row of a query of kind `kind` whose
/// probes sit in the structure table from `probe_base` on (see
/// append_query_specs). Shared by run_query() and the service.
QueryHit query_hit(const rckalign::PairRow& row, QueryKind kind,
                   std::uint32_t probe_base);

/// The per-method ranking rule: does `x` outrank `y`? TM-align and CE rank
/// by descending query-normalized TM-score, SeqNw by descending sequence
/// identity, the gapless method by ascending RMSD; ties break by ascending
/// entry index.
bool outranks(rckalign::Method method, const QueryHit& x,
              const QueryHit& y) noexcept;

/// Order `hits` method-major (the order of `methods`), probe-minor, each
/// (method, probe) group ranked by outranks and truncated to `top_k`
/// (0 = unlimited). Shared by run_query() and the service.
void rank_query_hits(std::vector<QueryHit>& hits,
                     std::span<const rckalign::Method> methods,
                     std::size_t top_k);

/// Validate `cfg` and the query shape (throwing ConfigError listing every
/// issue), execute the query's comparisons over the database through
/// rckalign::run_pairs(), write the configured obs files (obs::flush) and
/// the chk report when cfg.runtime.chk.report_path is set, and return the
/// ranked result. The database is untouched; probes ride inside `q`.
QueryResult run_query(const std::vector<bio::Protein>& database,
                      const Query& q, const RunConfig& cfg);

}  // namespace rck
