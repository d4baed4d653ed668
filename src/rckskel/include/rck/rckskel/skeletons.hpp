// rckskel: algorithmic skeletons for the (simulated) SCC.
//
// C++ port of the paper's C library (Section IV). The original exposes four
// varargs constructs — SEQ, PAR, COLLECT and FARM — over UE id arrays and a
// check_ready callback. Here:
//
//   * Task     — the paper's task tree: jobs or sub-tasks, each with the UE
//                set allowed to process them and a Seq/Par mode.
//   * seq()    — dispatch jobs to UEs strictly one-at-a-time, in order.
//   * par()    — dispatch jobs to UEs round-robin without waiting.
//   * collect()— round-robin poll UEs until the expected number of results
//                has been gathered.
//   * Farm     — the master-slaves construct: ensures slaves are ready
//                (check_ready handshake), keeps every allowed UE busy with
//                dynamic greedy dispatch, honours Seq ordering constraints
//                and per-subtask UE restrictions, and collects everything.
//
// Every farm master — farm(), farm_ft(), farm_ft_master() and a promoted
// farm_standby() — runs one engine, and both slaves, farm_slave() and
// farm_slave_ft(), one receive loop that runs a user Worker on each job (a
// batched grant job by job) until TERMINATE: the paper's client_receive_job
// (Figure 4). Without lease options both are the paper's FARM, message for
// message; with them, the fault-tolerant farm below.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "rck/error.hpp"
#include "rck/noc/sim_time.hpp"
#include "rck/rcce/rcce.hpp"
#include "rck/rckskel/job.hpp"

namespace rck::rckskel {

/// Invalid skeleton configuration (empty UE sets, master among slaves,
/// duplicate job ids, undispatchable task trees). Code "rck.skel.invalid".
class SkelError : public rck::Error {
 public:
  explicit SkelError(const std::string& message)
      : Error("rck.skel.invalid", message) {}
};

/// The wire protocol between master and slaves was violated (unexpected
/// message type, result for an unknown job, duplicate READY). Indicates a
/// skeleton bug or a mismatched worker, not a recoverable fault.
/// Code "rck.skel.protocol".
class SkelProtocolError : public rck::Error {
 public:
  explicit SkelProtocolError(const std::string& message)
      : Error("rck.skel.protocol", message) {}
};

/// Misuse of the batched-grant extension: a batch size of 0, a slave
/// answering a grant with the wrong number of results, or batch > 1
/// requested on a farm flavour that does not support batched grants (the
/// fault-tolerant farms lease and retry individual jobs). Code
/// "rck.skel.batch".
class SkelBatchError : public rck::Error {
 public:
  explicit SkelBatchError(const std::string& message)
      : Error("rck.skel.batch", message) {}
};

/// The fault-tolerant farm could not complete the job set within its fault
/// budget (no live slaves remain, a job exceeded max_attempts, nobody
/// answered READY). Code "rck.skel.farm_failed".
class FarmFailedError : public rck::Error {
 public:
  explicit FarmFailedError(const std::string& message)
      : Error("rck.skel.farm_failed", message) {}
};

/// Environment wrapper: the "convenient wrappers for common operations"
/// (init, core count, debug levels) the paper lists as part of rckskel.
class Env {
 public:
  explicit Env(rcce::Comm& comm) : comm_(&comm) {}

  int available_cores() const noexcept { return comm_->num_ues(); }
  bool is_master(int master_ue = 0) const noexcept { return comm_->ue() == master_ue; }

  void set_debug_level(int level) noexcept { debug_level_ = level; }
  int debug_level() const noexcept { return debug_level_; }
  /// Print a debug line (prefixed with UE name and simulated time) when
  /// `level` <= the configured debug level.
  void log(int level, const std::string& msg) const;

 private:
  rcce::Comm* comm_;
  int debug_level_ = 0;
};

/// The paper's task tree. A leaf holds jobs; an inner node holds sub-tasks.
/// `ue_ids` are the processing elements allowed to execute this subtree's
/// jobs (inner nodes may leave it empty to inherit the parent's set).
struct Task {
  enum class Mode { Seq, Par };

  Mode mode = Mode::Par;
  std::vector<int> ue_ids;
  std::vector<Job> jobs;
  std::vector<Task> children;

  static Task make_par(std::vector<int> ues, std::vector<Job> jobs);
  static Task make_seq(std::vector<int> ues, std::vector<Job> jobs);
  static Task make_group(Mode mode, std::vector<int> ues, std::vector<Task> children);

  /// Total number of jobs in the subtree.
  std::size_t job_count() const noexcept;
};

struct FarmOptions {
  /// Wait for a READY handshake from every slave before dispatching
  /// (the check_ready mechanism of the paper's constructs).
  bool wait_ready = true;
  /// Order jobs longest-first by cost_hint before dispatch (LPT balancing;
  /// the paper used FIFO and discusses LPT as an improvement).
  bool lpt_order = false;
  /// Send TERMINATE to every slave when the task completes. Disable when
  /// the same slaves will serve further farm() rounds (e.g. the
  /// hierarchical-masters extension); the caller then terminates them
  /// explicitly with terminate(). farm() only: farm_ft, farm_ft_master and
  /// farm_standby reject false with SkelError, because farm_slave_ft stops
  /// only on TERMINATE.
  bool send_terminate = true;
  /// Slave side: longest silence a farm_slave() tolerates before deciding
  /// something is wrong. A dead master raises scc::FaultStallError, an
  /// alive-but-silent one scc::DeadlockError — either way the simulation
  /// fails loudly instead of hanging forever on an orphaned blocking recv.
  /// Generous by default (one simulated hour) because legitimate silence
  /// scales with the workload: in a grouped farm (multi-method, MC-PSC) a
  /// slave whose group finished early hears nothing until the slowest
  /// group's last job completes, which on CK34 with CE-class methods runs
  /// to hundreds of simulated seconds. Tighten it for workloads with a
  /// known makespan bound. Must be > 0; farm_slave_ft ignores it.
  noc::SimTime slave_idle_timeout = 3600 * noc::kPsPerSec;
  /// Grant size: how many jobs the master packs into one BATCH frame per
  /// free slave (1 = classic per-job dispatch, the default). Batching
  /// amortises the master round trip; farm_slave serves the grant job by
  /// job through its per-job Worker and answers with one BATCHRESULT.
  /// Purely a scheduling knob: per-job payloads, results and cycle charges
  /// are identical to unbatched dispatch. Seq groups always release one job
  /// at a time regardless of this setting. 0 is invalid, and farm_ft,
  /// farm_ft_master and farm_standby accept only 1 (SkelBatchError).
  std::size_t batch = 1;
};

/// Send TERMINATE to the given UEs (for callers using send_terminate=false).
void terminate(rcce::Comm& comm, std::span<const int> ues);

/// SEQ: run `jobs` on `ues` strictly in order: job k+1 is dispatched only
/// after job k's result returned. Returns results in job order.
std::vector<JobResult> seq(rcce::Comm& comm, std::span<const int> ues,
                           std::span<const Job> jobs);

/// PAR: dispatch all jobs round-robin across `ues` without waiting.
/// Pair with collect() to gather the results.
void par(rcce::Comm& comm, std::span<const int> ues, std::span<const Job> jobs);

/// COLLECT: round-robin poll `ues` until `expected` results arrived.
std::vector<JobResult> collect(rcce::Comm& comm, std::span<const int> ues,
                               std::size_t expected);

/// FARM (master side): execute a task tree with dynamic greedy dispatch.
/// Jobs are only ever sent to UEs allowed by their subtree; Seq subtrees
/// release jobs one at a time; when all jobs are done every participating
/// UE receives TERMINATE. Returns all results (ordered by completion).
/// Job ids must be unique across the tree. Throws SkelError on a bad tree
/// (duplicate ids, no or master-including UE sets) or when jobs remain that
/// no slave may run, SkelProtocolError on an unexpected frame (a second
/// READY, a reply of the wrong type, a result for an unknown or already
/// accepted job), SkelBatchError on batch = 0 or a BATCHRESULT of the wrong
/// size, and bio::WireError on a frame that fails its checksum.
std::vector<JobResult> farm(rcce::Comm& comm, const Task& task,
                            const FarmOptions& opts = {});

/// Worker callback run by slaves: payload in, result payload out. Use the
/// Comm reference to charge the compute cost of the work performed.
using Worker = std::function<bio::Bytes(rcce::Comm&, const bio::Bytes&)>;

/// FARM (slave side): READY handshake, then serve jobs until TERMINATE. A
/// JOB frame gets one RESULT; a BATCH grant is served job by job, in grant
/// order, and answered with one BATCHRESULT. Throws SkelError, before any
/// traffic, when opts.slave_idle_timeout is 0.
void farm_slave(rcce::Comm& comm, int master_ue, const Worker& worker,
                const FarmOptions& opts = {});

// ---- Fault-tolerant FARM ---------------------------------------------------
// farm() above assumes perfectly reliable slaves and mesh, like the paper's
// hardware: it runs the farm engine without leases, so its waits are untimed
// and any fault fails the run. farm_ft() runs the same engine with leases
// and tolerates the failure modes the simulator can inject: slave crashes
// (before READY, mid-job, or after sending a result), dropped or corrupted
// protocol messages, and slow storage. The READY handshake gets a deadline,
// and the master grants each dispatched job a simulated-time *lease*; when
// the lease expires the job is reassigned to a live slave (bounded retries
// with geometric backoff), the silent slave is probed via the liveness
// oracle and blacklisted if dead, and duplicate results from slow-but-alive
// slaves are deduplicated by job id. Every frame's checksum is verified; a
// corrupt frame is treated as a loss and the implicated job re-sent. The
// farm completes all jobs as long as at least one slave allowed to run them
// survives. Task flattening, LPT order, dispatch order, result acceptance
// and the obs records are shared with farm(), and farm_slave_ft() runs
// farm_slave()'s loop; every lease entry also takes the shared FarmOptions.

/// Deliberately broken protocol variants for the model checker's mutant
/// catalogue (see DESIGN.md "Systematic exploration" and tools/rck_mc).
/// Each mutant re-introduces a realistic protocol bug that rck::mc must
/// catch with a distinct invariant violation; production runs always use
/// None. The mutants change *protocol decisions only* — message framing and
/// job execution are untouched — so a mutant run that happens to complete
/// still produces decodable results.
enum class ProtocolMutant : std::uint8_t {
  None = 0,
  /// The master "forgets" to size the lease to the job — every lease covers
  /// only a quarter of the estimated compute — and its retry path avoids
  /// the slave whose lease just expired. Expired jobs therefore sit in the
  /// retry queue while the original slave finishes them, and are granted
  /// again after completion (a no_reexec violation; schedules where the
  /// migrated copy starts first surface as a lease_safety executor overlap
  /// instead).
  DropLeaseRenewal = 1,
  /// The master grants a job's first dispatch to two slaves at once (a
  /// second Grant while the first lease is open — a lease_safety violation).
  DoubleGrant = 2,
  /// The standby keeps the *first* checkpoint it ever received instead of
  /// the newest: a takeover restores a stale sequence (a
  /// checkpoint_monotonic violation, and completed jobs may re-run).
  StaleCheckpointTakeover = 3,
};

/// Lease options of the fault-tolerant farm: farm_ft, farm_ft_master,
/// farm_standby and farm_slave_ft take them after the shared FarmOptions.
struct FaultTolerantFarmOptions {
  /// How long the master waits for READY handshakes before blacklisting the
  /// slaves that stayed silent. Must be > 0 when FarmOptions::wait_ready is on.
  noc::SimTime ready_timeout = 100 * noc::kPsPerMs;
  /// Fixed per-job lease. 0 (default) derives the lease from the job's
  /// cost_hint: lease_margin + lease_slack * predicted compute time.
  noc::SimTime lease = 0;
  noc::SimTime lease_margin = 100 * noc::kPsPerMs;
  double lease_slack = 3.0;
  /// Give up (throw) once a single job has been dispatched this many times.
  int max_attempts = 5;
  /// Lease multiplier applied on each retry, so a lease that proved too
  /// short grows geometrically instead of expiring forever.
  double retry_backoff = 2.0;
  /// Slave side: how long a slave waits in silence before checking whether
  /// the master is still alive (returning if not). Must be > 0.
  noc::SimTime master_silence_timeout = 2 * noc::kPsPerSec;
  /// Designated standby core for master failover, or -1 for none. A slave
  /// whose master dies switches to the standby (re-sending READY) instead of
  /// returning; the master-ft protocol replicates checkpoints to this UE.
  int standby_ue = -1;
  /// Seeded protocol bug for model-checking validation; None in production.
  ProtocolMutant mutant = ProtocolMutant::None;
};

/// Recovery bookkeeping returned by farm_ft, farm_ft_master and
/// farm_standby (farm() keeps none). Deterministic: the same FaultPlan and
/// task yield a bit-identical report.
struct FarmReport {
  std::size_t jobs = 0;              ///< jobs in the task tree
  std::size_t attempts = 0;          ///< total dispatches (>= jobs)
  std::size_t retries = 0;           ///< re-dispatches after a first attempt
  std::size_t reassignments = 0;     ///< retries that moved to another slave
  std::size_t lease_expiries = 0;    ///< leases that ran out
  std::size_t corrupt_frames = 0;    ///< frames rejected by checksum
  std::size_t duplicate_results = 0; ///< late results discarded by dedup
  std::size_t checkpoints = 0;       ///< snapshots replicated to the standby
  std::size_t failovers = 0;         ///< master deaths survived via standby
  std::size_t resumed_jobs = 0;      ///< jobs restored from a checkpoint (never re-run)
  std::vector<int> dead_ues;         ///< slaves blacklisted as crashed
  noc::SimTime wasted = 0;           ///< simulated time burned by expired leases
  bool operator==(const FarmReport&) const = default;
};

/// FARM (master side), fault-tolerant. Same task semantics as farm();
/// results are ordered by completion. Throws FarmFailedError
/// ("rck.skel.farm_failed") when no slave answers READY, no live slave can
/// run a remaining job or a job exhausts max_attempts; SkelError on a bad
/// tree, send_terminate = false or a zero ready_timeout (with wait_ready);
/// SkelBatchError on batch != 1; and SkelProtocolError on a result for an
/// unknown job or a frame that is neither READY nor RESULT.
std::vector<JobResult> farm_ft(rcce::Comm& comm, const Task& task,
                               const FarmOptions& opts = {},
                               const FaultTolerantFarmOptions& ft = {},
                               FarmReport* report = nullptr);

/// FARM (slave side), fault-tolerant: farm_slave's loop, but it skips
/// corrupt or unexpected frames (the master's lease re-sends the job) and
/// survives a dead master (returns instead of blocking forever, or — when
/// ft.standby_ue >= 0 — switches to the standby with a fresh READY and
/// keeps serving jobs). Throws SkelError, before any traffic, when
/// ft.master_silence_timeout is 0.
void farm_slave_ft(rcce::Comm& comm, int master_ue, const Worker& worker,
                   const FarmOptions& opts = {},
                   const FaultTolerantFarmOptions& ft = {});

// ---- Master failover (checkpointed farm state) -----------------------------
// farm_ft tolerates slave faults; the master itself is still a single point
// of failure. The master-ft protocol removes it: the master streams
// checkpoints (completed results + tracker state, CRC-32C-sealed — see
// checkpoint.hpp) and heartbeats to a designated standby core. When the
// standby misses heartbeats and the liveness oracle confirms the master is
// dead, it loads the latest valid checkpoint, re-establishes leases with the
// surviving slaves and finishes the farm without re-running any checkpointed
// job. Master, standby and slaves take the same FarmOptions and
// FaultTolerantFarmOptions, whose standby_ue names the standby.

/// The master-ft protocol's own knobs, next to the FarmOptions and
/// FaultTolerantFarmOptions that farm_ft_master and farm_standby take.
struct MasterFtOptions {
  /// Replicate a checkpoint after this many newly accepted results (a final
  /// snapshot is always sent on completion, and an empty one at startup).
  std::size_t checkpoint_every = 8;
  /// Master: heartbeat cadence towards the standby between checkpoints.
  noc::SimTime heartbeat_period = 10 * noc::kPsPerMs;
  /// Standby: silence window after which the master's liveness is probed
  /// (failover begins only if the oracle says the master is dead). Must be
  /// > 0.
  noc::SimTime heartbeat_timeout = 50 * noc::kPsPerMs;
};

/// FARM (master side) with standby replication: farm_ft semantics plus
/// checkpoint/heartbeat streaming to ft.standby_ue, which must be set and
/// must not be the master (SkelError otherwise). On completion the standby
/// receives a final checkpoint followed by TERMINATE.
std::vector<JobResult> farm_ft_master(rcce::Comm& comm, const Task& task,
                                      const FarmOptions& opts,
                                      const FaultTolerantFarmOptions& ft,
                                      const MasterFtOptions& mft,
                                      FarmReport* report = nullptr);

/// FARM (standby side): absorb checkpoints and heartbeats from `master_ue`.
/// Returns std::nullopt when the master completed normally (TERMINATE
/// received). If the master dies, takes over: resumes the farm from the
/// latest valid checkpoint and returns the complete result set (checkpointed
/// results in their original completion order, then the remainder).
/// `task`, `opts` and `ft` must be the ones the master was given. Throws
/// SkelError, before any traffic, when mft.heartbeat_timeout is 0.
std::optional<std::vector<JobResult>> farm_standby(
    rcce::Comm& comm, int master_ue, const Task& task, const FarmOptions& opts,
    const FaultTolerantFarmOptions& ft, const MasterFtOptions& mft,
    FarmReport* report = nullptr);

// ---- PIPE ------------------------------------------------------------------
// The paper motivates rckskel with "combining processes running on different
// cores to form a pipeline or to perform parallel execution". PIPE chains
// stage UEs: the master streams items into the first stage, each stage
// transforms and forwards, and the last stage returns to the master. With S
// stages of equal cost T and N items, the simulated makespan follows the
// classic fill-drain law (N + S - 1) * T — asserted by the tests.

/// PIPE (master side): stream `items` through `stage_ues` (in order) and
/// collect the final payloads. Results return in submission order (the
/// chain is FIFO end to end).
std::vector<JobResult> pipe(rcce::Comm& comm, std::span<const int> stage_ues,
                            std::span<const Job> items);

/// PIPE (stage side): receive items from `upstream_ue`, apply `worker`,
/// forward to `downstream_ue`; TERMINATE propagates down the chain.
void pipe_stage(rcce::Comm& comm, int upstream_ue, int downstream_ue,
                const Worker& worker);

}  // namespace rck::rckskel
