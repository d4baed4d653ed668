#include "rck/rck.hpp"

#include "finish_run.hpp"

namespace rck {

namespace {

std::string join_issues(const std::vector<ConfigIssue>& issues) {
  std::string msg = "invalid run configuration";
  for (const ConfigIssue& issue : issues) {
    msg += "\n  ";
    msg += issue.field;
    msg += ": ";
    msg += issue.message;
  }
  return msg;
}

}  // namespace

ConfigError::ConfigError(std::vector<ConfigIssue> issues)
    : Error("rck.config.invalid", join_issues(issues)),
      issues_(std::move(issues)) {}

std::vector<ConfigIssue> RunConfig::validate() const {
  std::vector<ConfigIssue> issues;
  const auto bad = [&issues](std::string field, std::string message) {
    issues.push_back(ConfigIssue{std::move(field), std::move(message)});
  };

  const int cores = runtime.chip.core_count();
  if (cores < 2) {
    bad("runtime.chip", "chip must have at least 2 cores (master + slave)");
  }
  const int reserved = master_ft ? 2 : 1;  // master (+ standby)
  if (slave_count < 1) {
    bad("slave_count", "need at least one slave core");
  } else if (cores >= 2 && slave_count + reserved > cores) {
    bad("slave_count",
        master_ft
            ? "slave_count + master + standby exceeds the chip's " +
                  std::to_string(cores) + " cores"
            : "slave_count + master exceeds the chip's " +
                  std::to_string(cores) + " cores");
  }

  if (methods.empty()) {
    bad("methods", "at least one comparison method is required");
  }

  if (service.queue_capacity < 1) {
    bad("service.queue_capacity",
        "must be >= 1 (a zero-capacity queue sheds every query)");
  }
  if (service.max_queries_per_round < 1) {
    bad("service.max_queries_per_round",
        "must be >= 1 (a round must serve at least one query)");
  }

  if (runtime.host.threads < 1) {
    bad("runtime.host.threads",
        "must be >= 1 (host workers pre-executing the comparisons; 1 = inline)");
  }
  if (runtime.poll_cost == 0) {
    bad("runtime.poll_cost", "a zero-cost poll makes polling loops free and "
        "livelock-prone; use a positive cost");
  }
  for (std::size_t i = 0; i < runtime.core_freq_scale.size(); ++i) {
    if (runtime.core_freq_scale[i] <= 0.0) {
      bad("runtime.core_freq_scale[" + std::to_string(i) + "]",
          "DVFS multiplier must be > 0");
    }
  }

  const scc::FaultPlan& faults = runtime.faults;
  for (std::size_t i = 0; i < faults.crashes.size(); ++i) {
    const auto& c = faults.crashes[i];
    if (c.rank < 0 || (cores >= 2 && c.rank >= cores)) {
      bad("runtime.faults.crashes[" + std::to_string(i) + "].rank",
          "rank outside the chip");
    }
    if (c.rank == 0 && !master_ft) {
      bad("runtime.faults.crashes[" + std::to_string(i) + "].rank",
          "crashing rank 0 kills the master; only a master_ft run (standby "
          "failover) can recover from that");
    }
  }
  for (std::size_t i = 0; i < faults.event_crashes.size(); ++i) {
    const auto& c = faults.event_crashes[i];
    if (c.rank < 0 || (cores >= 2 && c.rank >= cores)) {
      bad("runtime.faults.event_crashes[" + std::to_string(i) + "].rank",
          "rank outside the chip");
    }
    if (c.rank == 0 && !master_ft) {
      bad("runtime.faults.event_crashes[" + std::to_string(i) + "].rank",
          "crashing rank 0 kills the master; only a master_ft run (standby "
          "failover) can recover from that");
    }
  }
  for (std::size_t i = 0; i < faults.restarts.size(); ++i) {
    const auto& r = faults.restarts[i];
    if (r.rank < 0 || (cores >= 2 && r.rank >= cores)) {
      bad("runtime.faults.restarts[" + std::to_string(i) + "].rank",
          "rank outside the chip");
    }
  }
  for (std::size_t i = 0; i < faults.messages.size(); ++i) {
    const auto& m = faults.messages[i];
    if (m.src < 0 || m.dst < 0 || (cores >= 2 && (m.src >= cores || m.dst >= cores))) {
      bad("runtime.faults.messages[" + std::to_string(i) + "]",
          "src/dst outside the chip");
    }
  }
  for (std::size_t i = 0; i < faults.stalls.size(); ++i) {
    const auto& s = faults.stalls[i];
    if (s.rank < -1 || (cores >= 2 && s.rank >= cores)) {
      bad("runtime.faults.stalls[" + std::to_string(i) + "].rank",
          "rank outside the chip (-1 stalls every rank)");
    }
    if (s.slowdown <= 0.0) {
      bad("runtime.faults.stalls[" + std::to_string(i) + "].slowdown",
          "must be > 0");
    }
    if (s.until <= s.from) {
      bad("runtime.faults.stalls[" + std::to_string(i) + "]",
          "empty window (until <= from)");
    }
  }

  if (master_ft) {
    if (mft.heartbeat_period <= 0) {
      bad("mft.heartbeat_period", "must be > 0");
    } else if (mft.heartbeat_timeout <= mft.heartbeat_period) {
      bad("mft.heartbeat_timeout",
          "must exceed heartbeat_period, or the standby declares a failover "
          "between two healthy heartbeats");
    }
  }

  // run_pairs leases jobs under any non-empty fault plan, so the lease knobs
  // get validated in that case too.
  if (fault_tolerant || master_ft || !faults.empty()) {
    if (ft.max_attempts < 1) {
      bad("ft.max_attempts", "must be >= 1");
    }
    if (ft.lease_slack <= 0.0) {
      bad("ft.lease_slack", "must be > 0");
    }
    if (ft.retry_backoff < 1.0) {
      bad("ft.retry_backoff", "must be >= 1 (leases must not shrink on retry)");
    }
    if (ft.master_silence_timeout == 0) {
      bad("ft.master_silence_timeout",
          "must be > 0; a zero window returns from every slave receive "
          "without advancing simulated time, so the slave spins forever");
    }
    if (ft.ready_timeout == 0) {
      bad("ft.ready_timeout",
          "must be > 0; a READY deadline that is already due blacklists "
          "every slave before it can answer, so the farm always fails");
    }
  }

  if (batch == 0) {
    bad("batch", "must be >= 1 (1 = classic per-job dispatch)");
  } else if (batch > 1 && (fault_tolerant || master_ft || !faults.empty())) {
    bad("batch",
        "batched grants require the plain farm; the fault-tolerant farms "
        "(and any non-empty fault plan, which upgrades to them) lease and "
        "retry individual jobs");
  }

  const obs::Config& obs = runtime.obs;
  const chk::Config& chk = runtime.chk;
  if (!obs.trace_path.empty() && obs.trace_path == obs.metrics_path) {
    bad("runtime.obs.metrics_path",
        "trace_path and metrics_path point at the same file; the second "
        "write would clobber the first");
  }

  if (!chk.report_path.empty() &&
      (chk.report_path == obs.trace_path || chk.report_path == obs.metrics_path)) {
    bad("runtime.chk.report_path",
        "chk.report_path collides with an obs output path; the race report "
        "would clobber it");
  }

  if (!mc.witness_path.empty() &&
      (mc.witness_path == obs.trace_path || mc.witness_path == obs.metrics_path ||
       mc.witness_path == chk.report_path)) {
    bad("mc.witness_path",
        "mc.witness_path collides with another output path; the witness "
        "would clobber it");
  }
  if (!mc.replay_path.empty() && mc.replay_path == mc.witness_path) {
    bad("mc.replay_path",
        "replaying a witness onto itself (replay_path == witness_path) "
        "would overwrite the document being replayed");
  }

  return issues;
}

const RunConfig& RunConfig::validated() const {
  std::vector<ConfigIssue> issues = validate();
  if (!issues.empty()) throw ConfigError(std::move(issues));
  return *this;
}

RunResult run(const std::vector<bio::Protein>& dataset, const RunConfig& cfg) {
  cfg.validated();
  // The all-vs-all matrix is one method per run by construction (the cache,
  // the CSV schema and the paper's tables are all single-method); a
  // multi-method config is a query-surface feature, so reject it here with
  // the same diagnostics shape instead of silently using methods.front().
  if (cfg.methods.size() > 1) {
    throw ConfigError({ConfigIssue{
        "methods",
        "rck::run() executes exactly one method; use run_query() or the "
        "service for multi-method fan-out"}});
  }
  RunResult out = rckalign::run_rckalign(dataset, {cfg, cfg.methods.front()});
  detail::finish_run(cfg, out.obs, out.chk.get());
  return out;
}

}  // namespace rck
