// rck::mc — stateless model checking for the deterministic SCC simulator.
//
// The serial scheduler (src/scc/runtime.cpp) is deterministic: ready cores
// are admitted lowest-(vtime, rank) first and same-instant events fire in
// schedule order. Nondeterminism in the *real* system corresponds to exactly
// two kinds of decision points in the simulator:
//
//   CoreTie  — several cores are Ready at the same virtual time; the
//              scheduler must pick which one runs its next quantum first.
//   EventTie — several pending events (message deliveries, timers) are due
//              at the same instant; the queue must pick which fires first.
//
// rck::mc explores all resolutions of those decision points by depth-first
// replay: each run is driven by a decision vector (a prefix of explicit
// choices followed by default-0 choices), and after the run the Explorer
// computes the next unexplored vector, odometer-style. Choice 0 always
// reproduces the canonical serial schedule, so schedule 0 of every
// exploration is bit-identical to a plain serial run.
//
// Pruning (sleep-set / DPOR flavoured): a decision node whose alternatives
// all commute — every tied core's next dispatch segment touched only its own
// private state, or every tied event targets a distinct core — cannot affect
// any reachable state, so its siblings are never expanded. The independence
// relation is deliberately conservative (see DESIGN.md, "Systematic
// exploration"): pruning may only ever skip schedules that are observationally
// equivalent to an explored one, never hide a distinct interleaving.
//
// The protocol invariant suite runs over a log of ProtoEvents emitted by the
// rckskel farm skeletons through the same CoreCtx annotation channel the
// PR 5 race checker uses. A violating schedule is reported as a replayable
// witness (see witness.hpp, format "rck-mc-witness-v1").
//
// Layering: mc depends only on rck::common, like chk. The scc runtime links
// against it and drives a Session; the rck umbrella owns the exploration
// loop (src/rck/mc_run.cpp) because only that layer sees whole-run results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rck/error.hpp"

namespace rck::mc {

/// API misuse (bad bounds, choose() after finish(), decision-count runaway).
class McError : public Error {
 public:
  explicit McError(const std::string& message) : Error("rck.mc.misuse", message) {}
};

/// A strict replay diverged from its witness script: the run needed a
/// different number, kind, or arity of decisions than the witness recorded.
class ReplayError : public Error {
 public:
  explicit ReplayError(const std::string& message)
      : Error("rck.mc.replay", message) {}
};

/// The two decision-point kinds (see file header).
enum class DecisionKind : std::uint8_t {
  CoreTie = 0,
  EventTie = 1,
};

/// Stable short name used in witness JSON ("core" / "event").
const char* to_string(DecisionKind kind) noexcept;

/// One scripted decision: at a node of this kind with `n` alternatives,
/// alternative `chosen` was (or must be) taken.
struct Step {
  DecisionKind kind = DecisionKind::CoreTie;
  std::uint32_t n = 0;
  std::uint32_t chosen = 0;

  friend bool operator==(const Step& a, const Step& b) noexcept {
    return a.kind == b.kind && a.n == b.n && a.chosen == b.chosen;
  }
};

/// A decision as recorded during a run: the Step that was taken plus the
/// independence verdict the session reached for the node (filled in for
/// CoreTie nodes once every watched dispatch segment has been classified).
struct Decision {
  Step step{};
  /// True when all alternatives provably commute; the Explorer never
  /// expands siblings of an independent node.
  bool independent = false;
};

/// Protocol events emitted by the farm skeletons. `a`/`b` carry the
/// event-specific payload documented per enumerator.
enum class ProtoKind : std::uint8_t {
  /// Master granted job `a` to slave ue `b` (a lease opens).
  Grant = 0,
  /// Slave core began executing job `a` (emitter core identifies the slave).
  Exec = 1,
  /// Slave core finished job `a` and sent its result frame.
  ResultSent = 2,
  /// Master accepted the first result for job `a` from slave ue `b`.
  ResultAccept = 3,
  /// Master discarded a duplicate result for job `a` from slave ue `b`.
  ResultDup = 4,
  /// Master emitted checkpoint sequence `a` to the standby.
  Checkpoint = 5,
  /// Standby received (decoded and verified) checkpoint sequence `a`.
  CheckpointRecv = 6,
  /// Standby took over as master, restoring from checkpoint sequence `a`
  /// (0 when no checkpoint had arrived).
  Takeover = 7,
  /// Promoted master restored job `a` as already done from the checkpoint.
  Restore = 8,
  /// Master expired the lease on job `a` held by slave ue `b`.
  LeaseExpire = 9,
};

/// Stable short name used in reports ("grant", "exec", ...).
const char* to_string(ProtoKind kind) noexcept;

struct ProtoEvent {
  ProtoKind kind = ProtoKind::Grant;
  /// Rank of the emitting core (master, standby or slave).
  int core = 0;
  /// Event payloads, see ProtoKind.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// Emitting core's virtual time (ps) at the probe site.
  std::uint64_t ts = 0;

  friend bool operator==(const ProtoEvent& x, const ProtoEvent& y) noexcept {
    return x.kind == y.kind && x.core == y.core && x.a == y.a && x.b == y.b &&
           x.ts == y.ts;
  }
};

/// A violated invariant: which one, and a human-readable account of the
/// offending event (index into the session's protocol log when applicable).
struct Violation {
  /// Stable invariant name: "lease_safety", "no_reexec",
  /// "checkpoint_monotonic", "deadlock_freedom", "matrix_identity".
  std::string invariant;
  std::string detail;
  /// Index of the violating event in the protocol log, or npos for
  /// run-level invariants (deadlock_freedom, matrix_identity).
  std::size_t event_index = npos;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Check the log-level protocol invariants (lease_safety, no_reexec,
/// checkpoint_monotonic) over an emission-ordered event log. Returns the
/// first violation in log order, or nullopt when the log is clean.
/// Deadlock-freedom and matrix identity are run-level properties checked by
/// the exploration driver, which sees the run outcome.
std::optional<Violation> check_protocol_log(const std::vector<ProtoEvent>& log);

/// Per-run decision recorder/scripter. One Session drives exactly one
/// simulated run; the runtime calls choose_*() at each decision point and
/// segment() to classify dispatch quanta, the skeletons call proto().
///
/// Modes:
///  - exploration: constructed from a plain choice prefix; decisions beyond
///    the prefix default to alternative 0.
///  - strict replay: constructed from a full Step script; every decision
///    must match the scripted kind and arity exactly, and
///    verify_replay_complete() checks the run consumed the whole script.
///
/// Thread safety: none needed — every call comes from the one thread that
/// runs the simulation, whose scheduler runs one core's fiber at a time.
class Session {
 public:
  /// Exploration mode. `prefix[i]` is the alternative to take at decision
  /// `i`; past the end, alternative 0 is taken.
  explicit Session(std::vector<std::uint32_t> prefix = {});

  /// Strict replay mode from a witness script.
  explicit Session(std::vector<Step> script);

  /// Resolve a CoreTie among `ranks` (ascending, size >= 2). Registers a
  /// dispatch-segment watch on every tied rank; the node is independent iff
  /// all watched segments are local. Returns the index into `ranks` to run.
  std::uint32_t choose_core_tie(const std::vector<int>& ranks);

  /// Resolve an EventTie among `n` same-instant events (n >= 2).
  /// `independent` is the caller's commutation verdict (the queue knows the
  /// tied events' classes and targets; the session does not).
  std::uint32_t choose_event_tie(std::uint32_t n, bool independent);

  /// Classify the dispatch segment that just finished for `rank`: `local`
  /// is true iff the quantum touched only the core's own private state (no
  /// sends, barriers, peer-liveness reads or timer arms). Consumes the
  /// oldest outstanding watch on `rank`, if any.
  void segment(int rank, bool local);

  /// Append a protocol event to the log.
  void proto(ProtoKind kind, int core, std::uint64_t a, std::uint64_t b,
             std::uint64_t ts);

  /// Finish the run: unconsumed watches (core crashed or finished before
  /// its next quantum) count as local, and the independence verdict of
  /// every CoreTie node becomes final.
  void finish();

  /// Strict-replay completeness check: throws ReplayError unless the run
  /// consumed exactly the scripted decisions.
  void verify_replay_complete() const;

  const std::vector<Decision>& decisions() const noexcept { return decisions_; }
  const std::vector<ProtoEvent>& log() const noexcept { return log_; }
  bool strict() const noexcept { return strict_; }

  /// Runaway guard: a run demanding more decisions than this throws McError
  /// (a tiny bounded config should need a few hundred at most).
  std::size_t decision_limit = 1u << 20;

 private:
  std::uint32_t choose(DecisionKind kind, std::uint32_t n);

  std::vector<std::uint32_t> prefix_;
  std::vector<Step> script_;
  bool strict_ = false;
  bool finished_ = false;
  std::vector<Decision> decisions_;
  std::vector<ProtoEvent> log_;
  /// rank -> FIFO of decision indices awaiting that rank's next segment.
  std::map<int, std::vector<std::size_t>> watches_;
};

/// Depth-first schedule enumerator. Usage:
///
///   Explorer ex(bound);
///   do {
///     auto session = std::make_shared<Session>(ex.prefix());
///     ... run with session ...
///     session->finish();
///   } while (ex.advance(session->decisions()));
///
/// advance() walks the finished run's decision vector from the deepest node
/// up, looking for a non-independent node with an untried sibling; the new
/// prefix replays everything above it and takes the next alternative there.
/// Returns false when the tree is exhausted or the schedule bound is hit.
class Explorer {
 public:
  /// `bound` caps the number of explored schedules; 0 means unbounded.
  explicit Explorer(std::uint64_t bound = 0) : bound_(bound) {}

  const std::vector<std::uint32_t>& prefix() const noexcept { return prefix_; }
  bool advance(const std::vector<Decision>& decisions);

  /// Schedules completed so far (counts the runs fed to advance()).
  std::uint64_t explored() const noexcept { return explored_; }
  /// True once the whole (pruned) tree has been visited — as opposed to
  /// stopping early at the bound.
  bool exhausted() const noexcept { return exhausted_; }

 private:
  std::vector<std::uint32_t> prefix_;
  std::uint64_t bound_ = 0;
  std::uint64_t explored_ = 0;
  bool exhausted_ = false;
};

/// FNV-1a offset basis / prime of the result digests below.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Incremental FNV-1a over raw bytes; used for result-matrix digests.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t seed = kFnvOffset) noexcept;

}  // namespace rck::mc
