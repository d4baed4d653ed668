// rck::obs — always-compiled, off-by-default observability substrate.
//
// One Recorder lives for the duration of a simulated run. It is sharded:
// shard r belongs to simulated core r, and one trailing "system" shard
// belongs to code that runs under the scheduler's serialization (network
// link bookkeeping, event-queue callbacks). The contract that makes this
// safe AND deterministic without any locking:
//
//   * exactly one writer touches a given shard at any moment (a core's
//     shard is written by that core's fiber, or by the scheduler while all
//     fibers are parked; the system shard only by the scheduler, which
//     runs one fiber or event at a time);
//   * every record carries its simulated timestamp, and the merged view is
//     ordered by (ts, shard, per-shard sequence) — all three components are
//     pure simulation observables, so executions of the same run at any
//     host-pool width produce byte-identical merged output.
//
// When no observability is configured, SpmdRuntime never constructs a
// Recorder and every hook short-circuits on a null Handle — the simulated
// results and their cost are exactly those of an uninstrumented build.
//
// The standard metric/event taxonomy (struct Std) is registered centrally
// here and documented in DESIGN.md ("Observability").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rck/obs/metrics.hpp"

namespace rck::obs {

/// Observability configuration, carried inside scc::RuntimeConfig (so also
/// in the consolidated rck::RunConfig's runtime). Everything defaults to off.
struct Config {
  /// Collect metrics + trace even when no output file is configured (the
  /// recorder is then read programmatically via SpmdRuntime::obs()).
  bool enable = false;
  /// Write a Chrome trace_event JSON here after the run (implies enable).
  std::string trace_path;
  /// Write the merged metrics JSON here after the run (implies enable).
  std::string metrics_path;

  bool active() const noexcept {
    return enable || !trace_path.empty() || !metrics_path.empty();
  }

  static Config off() noexcept { return {}; }
  static Config collect() noexcept {
    Config c;
    c.enable = true;
    return c;
  }
};

/// Which display lane a trace record belongs to. Core records render one
/// lane per simulated core; link records one lane per NoC link class; Farm
/// records form the async job-lifecycle lane.
enum class Lane : std::uint8_t {
  Core,       ///< per-core activity (tid = shard)
  LinkLocal,  ///< same-tile MPB traffic
  LinkX,      ///< horizontal mesh links
  LinkY,      ///< vertical mesh links
  Farm,       ///< farm job lifecycle (async spans keyed by job id)
};

/// Chrome trace_event phase subset we emit.
enum class Ph : std::uint8_t {
  Span,        ///< complete event ("X": ts + dur)
  Instant,     ///< instant event ("i")
  Counter,     ///< counter sample ("C")
  AsyncBegin,  ///< nestable async begin ("b")
  AsyncEnd,    ///< nestable async end ("e")
};

using NameId = std::uint32_t;

struct TraceRecord {
  Ts ts = 0;
  Ts dur = 0;              ///< Span only
  std::uint64_t id = 0;    ///< correlation id (job id, link index, core rank)
  std::int64_t value = 0;  ///< Counter sample value
  NameId name = 0;
  Ph ph = Ph::Span;
  Lane lane = Lane::Core;

  bool operator==(const TraceRecord&) const = default;
};

/// The standard taxonomy: every metric and event name the built-in hooks
/// record. Registered once by the Recorder constructor so all subsystems
/// agree on ids without holding registration state of their own.
struct Std {
  // -- counters ---------------------------------------------------------
  CounterId noc_messages;       ///< messages injected into the mesh
  CounterId noc_bytes;          ///< payload+header bytes injected
  CounterId noc_flits_local;    ///< 16 B flits moved tile-locally
  CounterId noc_flits_x;        ///< flits over horizontal mesh links
  CounterId noc_flits_y;        ///< flits over vertical mesh links
  CounterId noc_drops;          ///< messages discarded at the NIC (faults)
  CounterId scc_dram_reads;     ///< dram_read operations
  CounterId scc_dram_stall_ps;  ///< extra time injected by storage stalls
  CounterId scc_polls;          ///< inbox polling sweeps (probe/wait_any)
  CounterId scc_crashes;        ///< cores killed by the fault plan
  CounterId scc_msg_faults;     ///< messages dropped/corrupted by the plan
  CounterId farm_jobs;          ///< job dispatches (per master shard)
  CounterId farm_results;       ///< results collected
  CounterId farm_retries;       ///< FT re-dispatches
  CounterId farm_lease_expiries;
  CounterId farm_corrupt_frames;
  CounterId farm_duplicates;
  CounterId farm_checkpoints;  ///< snapshots replicated to the standby
  CounterId farm_failovers;    ///< standby takeovers after a master crash
  CounterId app_pairs;        ///< pair comparisons executed (per slave shard)
  CounterId app_kernel_ps;    ///< simulated time in the comparison kernel
  CounterId app_block_loads;  ///< out-of-core block (re)loads

  // -- gauges -----------------------------------------------------------
  GaugeId app_pairs_per_sec;  ///< pairs / simulated second (set post-run)
  GaugeId farm_live_slaves;   ///< live (non-blacklisted) slaves

  // -- histograms -------------------------------------------------------
  HistId farm_job_latency_ps;  ///< dispatch -> collect, per job
  HistId farm_slave_job_ps;    ///< slave-side receive -> result-sent
  HistId farm_recovery_ps;     ///< failover detection -> leases re-established
  HistId noc_msg_bytes;        ///< message size distribution
  HistId noc_queue_ps;         ///< per-message link queueing delay

  // -- event names ------------------------------------------------------
  NameId n_compute, n_send, n_recv, n_poll, n_dram, n_blocked;  // core ops
  NameId n_job;       ///< slave job span / async lifecycle span
  NameId n_dispatch;  ///< master-side per-job dispatch marker
  NameId n_farm;      ///< whole-farm span on the master lane
  NameId n_ready;     ///< slave READY handshake instant
  NameId n_link;      ///< per-link occupancy span
  NameId n_mpb;       ///< MPB endpoint occupancy counter samples
  NameId n_crash, n_msg_drop, n_msg_corrupt, n_stall;  // fault markers
  NameId n_restart;  ///< fault-plan core revival marker (id = rank)
  NameId n_lease_expiry;  ///< FT farm lease ran out (id = job id)
  NameId n_checkpoint;    ///< checkpoint replicated (id = snapshot seq)
  NameId n_failover;      ///< standby takeover marker (id = old master UE)
  NameId n_phase;  ///< application phase spans (id = phase ordinal)
  NameId n_load_dataset, n_build_jobs, n_decode_results, n_block_load;
  NameId n_chk_race;  ///< race-detector report marker (id = racing core)
};

/// Sharded, lock-free metric + trace recorder. See file comment for the
/// single-writer-per-shard discipline that replaces locking.
class Recorder {
 public:
  /// `core_shards` simulated cores; one extra system shard is appended.
  Recorder(Config cfg, int core_shards);

  const Config& config() const noexcept { return cfg_; }
  int core_shards() const noexcept { return core_shards_; }
  int system_shard() const noexcept { return core_shards_; }
  int shard_count() const noexcept { return core_shards_ + 1; }
  const Std& std_ids() const noexcept { return std_; }

  /// Setup-time only (not thread-safe): register additional metrics or
  /// intern additional event names before recording starts.
  Registry& registry() noexcept { return registry_; }
  NameId name(std::string_view s);
  std::string_view name_of(NameId id) const noexcept { return names_[id]; }

  /// Freeze registration: sizes every shard's metric arrays. Called by the
  /// runtime right before the simulation starts; recording before seal()
  /// (or registering after it) is a programming error.
  void seal();
  bool sealed() const noexcept { return sealed_; }

  // -- hot-path recording (shard-exclusive, see file comment) -----------
  void add(int shard, CounterId c, std::uint64_t delta = 1) noexcept;
  void set_gauge(int shard, GaugeId g, double value, Ts ts) noexcept;
  void observe(int shard, HistId h, std::uint64_t value) noexcept;
  void span(int shard, Lane lane, NameId name, Ts start, Ts end,
            std::uint64_t id = 0);
  void instant(int shard, Lane lane, NameId name, Ts ts, std::uint64_t id = 0);
  void sample(int shard, Lane lane, NameId name, Ts ts, std::int64_t value,
              std::uint64_t id = 0);
  void async_begin(int shard, Lane lane, NameId name, Ts ts, std::uint64_t id);
  void async_end(int shard, Lane lane, NameId name, Ts ts, std::uint64_t id);

  // -- post-run read-out ------------------------------------------------
  /// Attach an extra top-level section to every subsequent snapshot():
  /// `json` is a raw, already-serialized JSON value emitted under `key`.
  /// Post-run, single-threaded use only; re-setting a key replaces its
  /// value. Layers above obs use this for summaries the metric model does
  /// not fit (the chk race-detector section) — when nothing is attached,
  /// snapshot bytes are unchanged.
  void set_section(std::string key, std::string json);
  /// Merged metrics (counters/histograms summed shard-ascending, gauges
  /// last-write-wins by (ts, shard)).
  Snapshot snapshot() const;
  /// All trace records in the canonical (ts, shard, seq) order, paired with
  /// their shard index.
  struct MergedRecord {
    TraceRecord rec;
    int shard = 0;
    bool operator==(const MergedRecord&) const = default;
  };
  std::vector<MergedRecord> merged_trace() const;
  /// Shard `shard`'s trace records in append order. Valid after seal().
  const std::vector<TraceRecord>& shard_trace(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].trace;
  }

 private:
  struct GaugeCell {
    double value = 0.0;
    Ts ts = 0;
    bool set = false;
  };
  struct Shard {
    std::vector<std::uint64_t> counters;
    std::vector<GaugeCell> gauges;
    std::vector<Histogram> hists;
    std::vector<TraceRecord> trace;
  };

  Config cfg_;
  int core_shards_ = 0;
  Registry registry_;
  std::vector<std::string> names_;
  Std std_;
  std::vector<Shard> shards_;
  std::vector<std::pair<std::string, std::string>> sections_;
  bool sealed_ = false;
};

/// Null-safe recording handle bound to (recorder, shard). All operations
/// no-op when the handle is empty, so instrumentation sites need no
/// conditionals of their own.
class Handle {
 public:
  Handle() = default;
  Handle(Recorder* r, int shard) : r_(r), shard_(shard) {}

  explicit operator bool() const noexcept { return r_ != nullptr; }
  Recorder* recorder() const noexcept { return r_; }
  int shard() const noexcept { return shard_; }
  /// Valid only when the handle is non-empty.
  const Std& ids() const noexcept { return r_->std_ids(); }

  void add(CounterId c, std::uint64_t delta = 1) const noexcept {
    if (r_) r_->add(shard_, c, delta);
  }
  void set_gauge(GaugeId g, double value, Ts ts) const noexcept {
    if (r_) r_->set_gauge(shard_, g, value, ts);
  }
  void observe(HistId h, std::uint64_t value) const noexcept {
    if (r_) r_->observe(shard_, h, value);
  }
  void span(Lane lane, NameId name, Ts start, Ts end, std::uint64_t id = 0) const {
    if (r_) r_->span(shard_, lane, name, start, end, id);
  }
  void instant(Lane lane, NameId name, Ts ts, std::uint64_t id = 0) const {
    if (r_) r_->instant(shard_, lane, name, ts, id);
  }
  void sample(Lane lane, NameId name, Ts ts, std::int64_t value,
              std::uint64_t id = 0) const {
    if (r_) r_->sample(shard_, lane, name, ts, value, id);
  }
  void async_begin(Lane lane, NameId name, Ts ts, std::uint64_t id) const {
    if (r_) r_->async_begin(shard_, lane, name, ts, id);
  }
  void async_end(Lane lane, NameId name, Ts ts, std::uint64_t id) const {
    if (r_) r_->async_end(shard_, lane, name, ts, id);
  }

 private:
  Recorder* r_ = nullptr;
  int shard_ = 0;
};

}  // namespace rck::obs
