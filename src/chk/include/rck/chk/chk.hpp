// rck::chk — dynamic race detector for the simulated SCC.
//
// The simulator's message passing is *implemented* safely (inboxes are
// mutated under the scheduler), but the RCCE protocols layered on top of it
// are hand-rolled flag/MPB disciplines: a sender writes a frame into the
// receiver's MPB slice and then publishes it by setting an RCCE flag; the
// receiver must test that flag before reading the slice. Nothing in the
// simulator enforces the discipline — a skeleton that reads a slice early,
// or two writers that share a byte range without an ordering flag, computes
// garbage on real silicon while looking fine here. TSan cannot see this
// class of bug: the racing "threads" are simulated cores, serialized onto
// one host schedule.
//
// chk checks the *protocol*, not the host execution: every simulated core
// carries a vector clock, and happens-before edges are established ONLY by
//
//   * RCCE flag publish/consume — flag_set(src→dst) joins the setter's clock
//     into the flag; a flag_test that observes the flag set joins the flag's
//     clock into the tester;
//   * barriers — all participants join to a common clock.
//
// Every MPB slice byte-range write/read is then checked against an interval
// shadow map: a read overlapping a write that is not in the reader's
// happens-before past, or two unordered writes to overlapping ranges, yields
// a structured RaceReport ("rck.chk.race") naming both access sites, cores,
// simulated timestamps and the implicated flag chain.
//
// The checker is always compiled and off by default. When enabled it charges
// no simulated time and emits nothing unless a race is found, so a clean
// chk-enabled run is bit-identical (cycles, alignments, obs bytes) to a
// chk-disabled one — asserted by tests/chk/test_chk_ck34.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rck/error.hpp"

namespace rck::chk {

/// Simulated picoseconds (chk sits below noc in the dependency order, so it
/// spells the type out, like rck::obs does).
using Ts = std::uint64_t;

/// Raised on checker misuse (bad core index, unsized checker).
/// Code "rck.chk.misuse".
class ChkError : public rck::Error {
 public:
  explicit ChkError(const std::string& message)
      : Error("rck.chk.misuse", message) {}
};

/// Report-file I/O failure (cannot open / short write). Code "rck.chk.io".
class ChkIoError : public rck::Error {
 public:
  explicit ChkIoError(const std::string& message)
      : Error("rck.chk.io", message) {}
};

/// Configuration, carried inside scc::RuntimeConfig. Everything defaults to
/// off: no checker is constructed and every hook short-circuits.
struct Config {
  /// Build the checker and verify the flag/MPB protocol during the run.
  bool enable = false;
  /// Bounded schedule perturbation: when non-zero, ready cores whose virtual
  /// clocks tie at the same simulated timestamp are dispatched in an order
  /// drawn from this seed instead of lowest-rank-first. Replays are
  /// deterministic per seed. Implies enable; an rck::mc session, when
  /// present, resolves the ties instead.
  std::uint64_t schedule_seed = 0;
  /// Stop recording after this many race reports (detection continues).
  std::size_t max_reports = 64;
  /// Write the structured "rck-chk-report-v1" JSON here after the run
  /// (implies enable). Written even when no race was found.
  std::string report_path;

  bool active() const noexcept {
    return enable || schedule_seed != 0 || !report_path.empty();
  }

  static Config off() noexcept { return {}; }
  static Config on() noexcept {
    Config c;
    c.enable = true;
    return c;
  }
};

/// Interned access-site label ("rcce.send", "farm_ft.stale_read", ...).
using SiteId = std::uint32_t;

enum class AccessKind : std::uint8_t { Read, Write };

/// One MPB slice access, as carried inside a RaceReport.
struct Access {
  int core = -1;  ///< simulated core that performed the access
  AccessKind kind = AccessKind::Read;
  int mpb = -1;  ///< core whose MPB slice was accessed
  std::uint32_t lo = 0;  ///< byte range [lo, hi) within that MPB
  std::uint32_t hi = 0;
  Ts ts = 0;          ///< simulated timestamp of the access
  SiteId site = 0;    ///< interned site label
  std::uint64_t clock = 0;  ///< performing core's own vector-clock entry

  bool operator==(const Access&) const = default;
};

/// One RCCE flag event, kept in a short per-flow history ring so a report
/// can show the publish/consume chain around the race.
struct FlagEvent {
  enum class Kind : std::uint8_t { Set, Test, TestEmpty, Note };

  Kind kind = Kind::Set;
  int src = -1;  ///< flow source (flag owner side)
  int dst = -1;  ///< flow destination
  int core = -1;  ///< core that performed the flag operation
  Ts ts = 0;
  SiteId site = 0;
  std::uint64_t id = 0;  ///< annotation payload (job id, lease ordinal, ...)

  bool operator==(const FlagEvent&) const = default;
};

/// One detected protocol race. `code` is always "rck.chk.race"; `kind`
/// refines it.
struct RaceReport {
  enum class Kind : std::uint8_t {
    ReadBeforePublish,   ///< read not ordered after the overlapping write
    WriteWriteOverlap,   ///< two unordered writes to overlapping ranges
  };

  Kind kind = Kind::ReadBeforePublish;
  Access prior;    ///< the earlier access (always a write)
  Access current;  ///< the racing access that triggered the report
  /// Recent flag events of the implicated flow, oldest first (empty when the
  /// racing range was written outside any flow).
  std::vector<FlagEvent> flag_chain;
};

/// Aggregate event counts (the "chk" section of the metrics snapshot).
struct Stats {
  std::uint64_t mpb_writes = 0;
  std::uint64_t mpb_reads = 0;
  std::uint64_t flag_sets = 0;
  std::uint64_t flag_tests = 0;
  std::uint64_t barriers = 0;
  std::uint64_t notes = 0;
  std::uint64_t races = 0;  ///< all detected, including past max_reports

  bool operator==(const Stats&) const = default;
};

/// The vector-clock engine. One instance per simulated run; every method is
/// called under the runtime's scheduler serialization (or single-threaded in
/// unit tests), so the checker itself needs no locking. All state is a pure
/// function of the simulated event sequence — reports are deterministic.
class Checker {
 public:
  /// `nranks` simulated cores, each owning `mpb_bytes` of MPB. The MPB is
  /// statically partitioned RCCE-style: the slice for frames flowing from
  /// core s occupies [slice_lo(s), slice_lo(s) + slice_len()).
  Checker(Config cfg, int nranks, std::uint32_t mpb_bytes);

  const Config& config() const noexcept { return cfg_; }
  int nranks() const noexcept { return nranks_; }

  /// Intern a site label (idempotent; deterministic ids in call order).
  SiteId site(std::string_view name);
  std::string_view site_name(SiteId id) const noexcept;

  std::uint32_t slice_len() const noexcept { return slice_len_; }
  std::uint32_t slice_lo(int flow_src) const noexcept {
    return static_cast<std::uint32_t>(flow_src) * slice_len_;
  }

  // -- protocol events ---------------------------------------------------
  // `flow_src`/`flow_dst` attribute an access to a flow so reports can show
  // its flag chain; pass -1/-1 for raw accesses outside any flow.

  void mpb_write(int core, int mpb, std::uint32_t lo, std::uint32_t len, Ts ts,
                 SiteId at, int flow_src = -1, int flow_dst = -1);
  void mpb_read(int core, int mpb, std::uint32_t lo, std::uint32_t len, Ts ts,
                SiteId at, int flow_src = -1, int flow_dst = -1);
  /// Publish flow (src → dst): joins the setter's clock into the flag.
  void flag_set(int core, int src, int dst, Ts ts, SiteId at);
  /// Test flow (src → dst). `observed_set` mirrors what the caller saw (a
  /// pending frame): only a successful test creates the happens-before edge.
  void flag_test(int core, int src, int dst, bool observed_set, Ts ts, SiteId at);
  /// Protocol annotation (lease expiry, reassignment): recorded into the
  /// flow's flag chain so reports show recovery context; creates no edge.
  void note(int core, int src, int dst, Ts ts, SiteId at, std::uint64_t id);
  /// Barrier release across `ranks` at time `ts`: all participants join.
  void barrier(const std::vector<int>& ranks, Ts ts);

  // -- read-out ----------------------------------------------------------
  const std::vector<RaceReport>& reports() const noexcept { return reports_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Structured report document ("rck-chk-report-v1"), written to
  /// Config::report_path by rck::run / the CLI and uploadable as a CI
  /// artifact. Deterministic bytes for a deterministic run.
  std::string report_json() const;

  /// Compact stats object (raw JSON value) for the metrics snapshot's
  /// "chk" section. The runtime attaches it only when races were detected,
  /// keeping clean chk-enabled runs byte-identical to chk-off runs.
  std::string section_json() const;

 private:
  /// Interval shadow map entry: the last write covering [lo, hi) of an MPB.
  struct Segment {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    int writer = -1;
    std::uint64_t clock = 0;  ///< writer's own clock entry at the write
    Ts ts = 0;
    SiteId site = 0;
    int flow_src = -1;
    int flow_dst = -1;
  };

  /// Per-flow RCCE flag: its accumulated clock plus a short event history.
  struct FlagState {
    std::vector<std::uint64_t> vc;  ///< empty until first touched
    std::vector<FlagEvent> ring;    ///< last kFlagRing events, oldest first
  };

  static constexpr std::size_t kFlagRing = 6;

  std::uint64_t& clock_of(int core);
  void check_core(int core, const char* what) const;
  FlagState& flag(int src, int dst);
  void push_flag_event(FlagState& f, const FlagEvent& ev);
  void report(RaceReport::Kind kind, const Segment& prior, const Access& cur);

  Config cfg_;
  int nranks_ = 0;
  std::uint32_t mpb_bytes_ = 0;
  std::uint32_t slice_len_ = 0;

  // vc_[c] is core c's vector clock (nranks entries).
  std::vector<std::vector<std::uint64_t>> vc_;
  std::vector<FlagState> flags_;  // nranks * nranks, flow (src, dst)
  std::vector<std::vector<Segment>> mpb_;  // shadow map per MPB owner

  std::vector<std::string> sites_;
  std::vector<RaceReport> reports_;
  std::vector<std::uint64_t> report_keys_;  // dedup (sorted)
  Stats stats_;
};

/// Write `checker.report_json()` to `path`, creating parent directories.
/// Used by rck::run and the CLI for Config::report_path (written even when
/// no race was found, so CI can always pick up the artifact). Throws
/// ChkIoError on failure.
void write_report(const Checker& checker, const std::string& path);

}  // namespace rck::chk
