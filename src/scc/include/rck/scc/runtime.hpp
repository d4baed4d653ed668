// SPMD runtime for the simulated SCC.
//
// RCCE programs are SPMD: the same program runs on every core, branching on
// its rank (the paper's Figure 3 template). We reproduce that programming
// model exactly: user code is an ordinary C++ callable invoked once per
// simulated core, written with *blocking* message-passing calls, and the
// runtime interleaves the per-core executions deterministically.
//
// Mechanics: each core's program runs as a stackful fiber (a ucontext with
// its own 8 MiB stack) on the thread that called run(), and the scheduler
// switches into exactly one fiber at a time. Every CoreCtx operation that
// advances the core's virtual clock is a yield point; the scheduler always
// resumes the entity with the smallest next timestamp — either the earliest
// pending network event or the ready core with the smallest virtual time
// (ties: events first, then lowest rank). This conservative order makes
// simulated executions sequentially consistent and bit-for-bit
// reproducible: host scheduling cannot change any simulated outcome. Each
// fiber keeps its own caught-exception state, so a core may block inside a
// catch handler. This serial scheduler is the only one; RuntimeConfig::host
// never reaches it (see HostParallelism).
//
// Compute cost enters via charge_cycles(), typically fed from the
// core::AlignStats counters of a real alignment (pre-executed by the farm
// drivers), converted through the chip's CoreTimingModel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rck/bio/serialize.hpp"
#include "rck/chk/chk.hpp"
#include "rck/error.hpp"
#include "rck/mc/mc.hpp"
#include "rck/noc/event_queue.hpp"
#include "rck/noc/network.hpp"
#include "rck/obs/obs.hpp"
#include "rck/scc/chip.hpp"
#include "rck/scc/timing.hpp"

namespace rck::scc {

class SpmdRuntime;
struct CoreState;  // internal

/// Raised for simulation-level failures (bad rank, misuse).
/// Code "rck.scc.sim" (subclasses refine it; see DESIGN.md, "Error
/// taxonomy").
class SimError : public rck::Error {
 public:
  explicit SimError(const std::string& message) : Error("rck.scc.sim", message) {}

 protected:
  SimError(std::string_view code, const std::string& message)
      : Error(code, message) {}
};

/// Raised when every live core is blocked and no network event is pending.
/// The message includes a per-core state dump. Code "rck.scc.deadlock".
class DeadlockError : public SimError {
 public:
  explicit DeadlockError(const std::string& message)
      : SimError("rck.scc.deadlock", message) {}
};

/// Raised when the simulation stalls because injected faults killed the
/// cores the survivors are waiting on. Distinct from DeadlockError so tests
/// and callers can tell a crash-induced stall from a programming error.
/// Code "rck.scc.fault_stall".
class FaultStallError : public SimError {
 public:
  explicit FaultStallError(const std::string& message)
      : SimError("rck.scc.fault_stall", message) {}
};

/// Deterministic fault-injection plan. Every trigger is keyed on simulated
/// time or a per-flow message sequence number, never on host state, so a run
/// with faults active replays bit-for-bit.
struct FaultPlan {
  /// Kill `rank` at simulated time `at`: the core stops executing at its
  /// next operation boundary >= `at` (an operation already spanning `at`
  /// completes), and every message delivered to it afterwards is dropped.
  struct Crash {
    int rank = -1;
    noc::SimTime at = 0;
  };

  /// Drop or corrupt the `nth` message (0-based) sent on the (src, dst)
  /// flow. A dropped message occupies the mesh like normal traffic but is
  /// discarded at the destination NIC; a corrupted one is delivered with
  /// deterministically flipped payload bits (an empty payload is dropped
  /// instead, since there is nothing to flip).
  struct MessageFault {
    enum class Kind : std::uint8_t { Drop, Corrupt };
    Kind kind = Kind::Drop;
    int src = -1;
    int dst = -1;
    std::uint64_t nth = 0;
  };

  /// Transient storage stall (a wedged DRAM channel / NFS server): dram_read
  /// operations *starting* inside [from, until) on `rank` (-1 = every rank)
  /// cost `slowdown` times their nominal time. Overlapping windows compound.
  struct Stall {
    int rank = -1;
    noc::SimTime from = 0;
    noc::SimTime until = 0;
    double slowdown = 10.0;
  };

  /// Kill `rank` when the scheduler has fired exactly `after_events` queue
  /// events (message deliveries, timers, scheduled faults). Event execution
  /// order is a pure simulation observable, so this pins a crash to a
  /// precise protocol step — "crash the master right after the Kth
  /// delivery" — independent of how timing parameters shift simulated
  /// times.
  struct EventCrash {
    int rank = -1;
    std::uint64_t after_events = 0;
  };

  /// Revive a previously crashed `rank` at simulated time `at`: the core
  /// gets a fresh inbox and re-executes the program function from the start
  /// (a rebooted node re-joining the computation). A restart whose rank is
  /// not dead at `at` is a no-op. Restarts are applied in `at` order.
  struct Restart {
    int rank = -1;
    noc::SimTime at = 0;
  };

  std::vector<Crash> crashes;
  std::vector<MessageFault> messages;
  std::vector<Stall> stalls;
  std::vector<EventCrash> event_crashes;
  std::vector<Restart> restarts;

  bool empty() const noexcept {
    return crashes.empty() && messages.empty() && stalls.empty() &&
           event_crashes.empty() && restarts.empty();
  }
};

/// Host-side parallelism around the simulation. The rckalign farm drivers
/// pre-execute their comparisons on a pool of `threads` host workers before
/// simulating (DESIGN.md, "Host-parallel execution"); SpmdRuntime itself
/// ignores it and always runs its one serial scheduler, so the width changes
/// wall-clock time only, never a simulated result.
struct HostParallelism {
  /// Pre-execution pool width; 1 = run the comparisons inline.
  int threads = 1;

  /// Convenience: one thread per host hardware thread.
  static HostParallelism hardware() noexcept;
};

struct RuntimeConfig {
  SccConfig chip = default_scc();
  noc::NetworkParams net{};
  CoreTimingModel core_model = CoreTimingModel::p54c_800();
  /// Cost of one inbox poll (an MPB flag read across the mesh).
  noc::SimTime poll_cost = 500 * noc::kPsPerNs;
  /// Cost of a full-chip barrier beyond the wait itself.
  noc::SimTime barrier_cost = 2 * noc::kPsPerUs;
  /// Per-rank clock multipliers modelling the SCC's voltage/frequency
  /// islands (per-tile DVFS). Empty = every core at the profile's nominal
  /// frequency; otherwise freq(rank) = nominal * core_freq_scale[rank]
  /// (ranks beyond the vector get 1.0). Affects charge_cycles only;
  /// mesh and MPB timing are on their own clock domain, as on the SCC.
  std::vector<double> core_freq_scale{};
  /// Deterministic fault injection (core crashes, message loss/corruption,
  /// storage stalls). Empty by default: no faults.
  FaultPlan faults{};
  /// Width of the farm drivers' kernel pre-execution pool (see
  /// HostParallelism). Changes wall-clock time only, never any simulated
  /// result.
  HostParallelism host{};
  /// Observability (metrics + structured trace, see DESIGN.md
  /// "Observability"). Off by default: no recorder is created and every
  /// hook short-circuits, so simulated results and their cost are exactly
  /// those of an uninstrumented run. When active, a per-core-sharded
  /// obs::Recorder is built for the run. Once run() returns, each core's
  /// shard also holds that core's compute/send/recv/poll/dram/blocked spans
  /// (what scc::render_gantt draws), and the system shard the network's
  /// link spans (what noc::render_link_heatmap sums).
  obs::Config obs{};
  /// Protocol race detection (vector-clock MPB/flag checker, see DESIGN.md
  /// "Analysis & invariants"). Off by default: no checker is constructed
  /// and every hook short-circuits. A clean chk run stays bit-identical to
  /// a chk-off run; a nonzero schedule_seed reorders same-instant core ties.
  chk::Config chk{};
  /// Model-checking session (see DESIGN.md "Systematic exploration"). Null
  /// by default. When set, every same-instant scheduling tie — ready cores
  /// at equal virtual time, events due at the same instant — becomes a
  /// decision the session resolves and records (taking precedence over
  /// chk's schedule perturbation). The all-zeros decision vector reproduces
  /// the canonical schedule exactly, so a session that always picks 0 leaves
  /// every simulated result bit-identical to an mc-off run.
  std::shared_ptr<mc::Session> mc{};
};

/// Per-core execution statistics, available after run().
struct CoreReport {
  noc::SimTime finish = 0;   ///< virtual time when the program returned
  noc::SimTime busy = 0;     ///< time spent computing / moving data
  noc::SimTime blocked = 0;  ///< time spent waiting for messages/barriers
  std::uint64_t compute_cycles = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  bool crashed = false;          ///< killed by the FaultPlan before finishing
  noc::SimTime crashed_at = 0;   ///< crash trigger time (valid when crashed)
  std::uint32_t restarts = 0;    ///< times the FaultPlan revived this core

  bool operator==(const CoreReport&) const = default;
};

/// Per-core interface handed to the SPMD program. All methods must be called
/// from the program invocation that received the context.
class CoreCtx {
 public:
  int rank() const noexcept;
  int nranks() const noexcept;
  noc::SimTime now() const noexcept;
  const SccConfig& chip() const noexcept;
  const CoreTimingModel& timing() const noexcept;

  /// Advance this core's clock by `cycles` of compute (scaled by this
  /// core's DVFS multiplier, see RuntimeConfig::core_freq_scale).
  void charge_cycles(std::uint64_t cycles);

  /// This core's DVFS clock multiplier (1.0 when not configured).
  double freq_scale() const noexcept;

  /// Change this core's DVFS multiplier at runtime (RCCE's power-management
  /// API lets software re-clock its own tile mid-run). Takes effect for
  /// subsequent charge_cycles calls; charges the SCC's voltage/frequency
  /// transition latency. Throws SimError on scale <= 0.
  void set_freq_scale(double scale);
  /// Advance this core's clock by an absolute duration.
  void charge(noc::SimTime dt);
  /// Charge the cost of reading `bytes` from DRAM via the nearest iMC.
  void dram_read(std::uint64_t bytes);

  /// Enqueue `payload` for `dst`. The sender is occupied for the local copy
  /// and library overhead; delivery time is computed by the network model
  /// (XY route, link contention, MPB chunking). FIFO per (src, dst) pair.
  void send(int dst, bio::Bytes payload);

  /// Block until a message from `src` is available, then return it.
  bio::Bytes recv(int src);

  /// Like recv(), but give up after `timeout` of simulated time: returns
  /// std::nullopt with the clock advanced to the deadline. The timeout is
  /// relative to now(). This is how programs detect silence (a crashed or
  /// partitioned peer) instead of blocking forever.
  std::optional<bio::Bytes> recv_timeout(int src, noc::SimTime timeout);

  /// Non-blocking test for a pending message from `src` (one poll charged).
  bool probe(int src);

  /// Block until a message from any rank in `srcs` is pending and return
  /// that rank (the message stays queued for a subsequent recv()). When
  /// several are pending, selection is round-robin over `srcs` starting
  /// after the last pick — exactly the master's polling loop in the paper.
  int wait_any(std::span<const int> srcs);

  /// Like wait_any(), but give up after `timeout` of simulated time and
  /// return -1 with the clock advanced to the deadline.
  int wait_any_timeout(std::span<const int> srcs, noc::SimTime timeout);

  /// Liveness oracle: false once `rank` has been killed by the FaultPlan
  /// (as of this core's current simulated time). Deterministic: a crash at
  /// time T is visible exactly to queries at simulated time >= T.
  bool peer_alive(int rank) const;

  /// Full-program barrier across all nranks.
  void barrier();

  /// Observability handle bound to this core's shard. Empty (and free) when
  /// the run has no obs::Config active; valid for the whole program
  /// invocation. Recording through it never advances simulated time.
  obs::Handle obs() const noexcept;

  // -- race-detector annotations (no-ops when RuntimeConfig::chk is off) --
  // The runtime instruments its own send/recv/probe/barrier protocol
  // automatically; these raw hooks exist for code that models additional
  // MPB/flag traffic on top of it (skeleton protocols, tests seeding known
  // races). None of them advance simulated time.

  /// Record a raw write of [lo, lo+len) in `mpb_owner`'s MPB slice space.
  void chk_mpb_write(int mpb_owner, std::uint32_t lo, std::uint32_t len,
                     std::string_view site, int flow_src = -1,
                     int flow_dst = -1);
  /// Record a raw read of [lo, lo+len) from `mpb_owner`'s MPB slice space.
  void chk_mpb_read(int mpb_owner, std::uint32_t lo, std::uint32_t len,
                    std::string_view site, int flow_src = -1,
                    int flow_dst = -1);
  /// Record an RCCE flag publish on flow (src -> dst) by this core.
  void chk_flag_set(int src, int dst, std::string_view site);
  /// Record an RCCE flag test on flow (src -> dst); `observed_set` mirrors
  /// what the caller saw (only a successful test creates an ordering edge).
  void chk_flag_test(int src, int dst, bool observed_set, std::string_view site);
  /// Record a protocol annotation (lease expiry, job reassignment) on flow
  /// (src -> dst); shows up in race reports' flag chains, creates no edge.
  void chk_note(int src, int dst, std::string_view site, std::uint64_t id = 0);

  /// Append a protocol event to the model-checking session's invariant log
  /// (no-op when RuntimeConfig::mc is null; never advances simulated time).
  /// The emitting core and its current virtual time are recorded
  /// automatically; `a`/`b` are the mc::ProtoKind-specific payloads.
  void mc_proto(mc::ProtoKind kind, std::uint64_t a, std::uint64_t b = 0);

 private:
  friend class SpmdRuntime;
  CoreCtx(SpmdRuntime& rt, CoreState& st) : rt_(&rt), st_(&st) {}
  SpmdRuntime* rt_;
  CoreState* st_;
};

using Program = std::function<void(CoreCtx&)>;

class SpmdRuntime {
 public:
  explicit SpmdRuntime(RuntimeConfig cfg);
  ~SpmdRuntime();

  SpmdRuntime(const SpmdRuntime&) = delete;
  SpmdRuntime& operator=(const SpmdRuntime&) = delete;

  /// Execute `program` on ranks 0..nranks-1 to completion.
  /// Returns the simulated makespan (max core finish time).
  /// Throws DeadlockError on deadlock; rethrows the first (lowest-rank)
  /// exception if a program throws.
  noc::SimTime run(int nranks, const Program& program);

  const RuntimeConfig& config() const noexcept { return cfg_; }
  const noc::NetworkStats& network_stats() const noexcept;
  const std::vector<CoreReport>& core_reports() const noexcept { return reports_; }
  std::uint64_t events_fired() const noexcept;

  /// The run's observability recorder (null unless RuntimeConfig::obs is
  /// active). Shared so callers can keep metrics/trace alive after the
  /// runtime is destroyed; populated fully only once run() has returned.
  std::shared_ptr<obs::Recorder> obs() const noexcept;

  /// The run's race checker (null unless RuntimeConfig::chk is active).
  /// Shared so callers can inspect reports after the runtime is destroyed.
  std::shared_ptr<chk::Checker> chk() const noexcept;

 private:
  friend class CoreCtx;
  struct Impl;
  RuntimeConfig cfg_;
  std::vector<CoreReport> reports_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rck::scc
