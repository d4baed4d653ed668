// rck::mc_explore / rck::mc_replay — the umbrella entry points for bounded
// systematic schedule exploration (see DESIGN.md "Systematic exploration").
//
// One "schedule" = one full simulated run driven by an mc::Session that
// resolves every same-instant tie (ready-core ties and event-delivery ties)
// from a decision vector. The mc::Explorer enumerates decision vectors
// depth-first with sleep-set pruning; each completed run is judged by three
// layers, in priority order:
//
//   1. the protocol-event log against the invariant suite
//      (mc::check_protocol_log: lease_safety, no_reexec,
//      checkpoint_monotonic),
//   2. run completion (a deadlock, stall or farm failure under some
//      schedule is a deadlock_freedom violation),
//   3. result-matrix bit-identity to the canonical all-zeros schedule
//      (matrix_identity).
//
// The first violating schedule is packaged as a replayable witness.
#include <algorithm>
#include <exception>
#include <sstream>

#include "rck/rck.hpp"

namespace rck {

namespace {

/// Order-independent digest of the result matrix: rows sorted by (i, j),
/// every scored field hashed, the worker rank excluded (which slave computed
/// a pair legitimately varies across schedules; the scores must not).
std::uint64_t matrix_digest(const std::vector<rckalign::PairRow>& rows) {
  std::vector<const rckalign::PairRow*> sorted;
  sorted.reserve(rows.size());
  for (const rckalign::PairRow& r : rows) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const rckalign::PairRow* a, const rckalign::PairRow* b) {
              return a->i != b->i ? a->i < b->i : a->j < b->j;
            });
  std::uint64_t h = mc::kFnvOffset;
  const auto mix = [&h](const void* p, std::size_t n) {
    h = mc::fnv1a(p, n, h);
  };
  for (const rckalign::PairRow* r : sorted) {
    mix(&r->i, sizeof r->i);
    mix(&r->j, sizeof r->j);
    mix(&r->tm_norm_a, sizeof r->tm_norm_a);
    mix(&r->tm_norm_b, sizeof r->tm_norm_b);
    mix(&r->rmsd, sizeof r->rmsd);
    mix(&r->seq_identity, sizeof r->seq_identity);
    mix(&r->aligned_length, sizeof r->aligned_length);
  }
  return h;
}

struct ScheduleOutcome {
  bool completed = false;   ///< the simulated run finished without throwing
  std::string error;        ///< exception message when !completed
  std::uint64_t digest = 0; ///< matrix digest (valid only when completed)
};

/// Run the configured simulation once under `session`. Replay divergence
/// (mc::ReplayError) and misuse (mc::McError) are driver bugs or bad
/// witnesses and propagate; anything else is a property of this schedule
/// and is captured as a potential deadlock_freedom violation.
ScheduleOutcome run_schedule(const std::vector<bio::Protein>& dataset,
                             const RunConfig& cfg,
                             const std::shared_ptr<mc::Session>& session) {
  rckalign::RckAlignOptions opts{cfg, cfg.methods.front()};
  opts.runtime.mc = session;
  ScheduleOutcome out;
  try {
    const RunResult r = rckalign::run_rckalign(dataset, opts);
    out.digest = matrix_digest(r.results);
    out.completed = true;
  } catch (const mc::ReplayError&) {
    session->finish();
    throw;
  } catch (const mc::McError&) {
    session->finish();
    throw;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  session->finish();
  return out;
}

/// Judge one schedule in the documented priority order.
std::optional<mc::Violation> judge(const mc::Session& session,
                                   const ScheduleOutcome& run,
                                   std::optional<std::uint64_t> canonical) {
  if (std::optional<mc::Violation> v = mc::check_protocol_log(session.log()))
    return v;
  if (!run.completed) {
    return mc::Violation{"deadlock_freedom",
                         "the run failed to complete under this schedule: " +
                             run.error,
                         mc::Violation::npos};
  }
  if (canonical && run.digest != *canonical) {
    std::ostringstream os;
    os << "result matrix diverged from the canonical schedule (digest 0x"
       << std::hex << run.digest << " vs canonical 0x" << *canonical << ")";
    return mc::Violation{"matrix_identity", os.str(), mc::Violation::npos};
  }
  return std::nullopt;
}

mc::Witness make_witness(const RunConfig& cfg, std::uint64_t schedule,
                         const mc::Violation& v,
                         const std::vector<mc::Decision>& decisions) {
  mc::Witness w;
  w.config = cfg.mc.config_label;
  w.schedule = schedule;
  w.invariant = v.invariant;
  w.detail = v.detail;
  w.steps.reserve(decisions.size());
  for (const mc::Decision& d : decisions) w.steps.push_back(d.step);
  return w;
}

}  // namespace

McOutcome mc_explore(const std::vector<bio::Protein>& dataset,
                     const RunConfig& cfg) {
  cfg.validated();
  mc::Explorer explorer(cfg.mc.bound);
  McOutcome out;
  std::optional<std::uint64_t> canonical;
  for (;;) {
    const auto session = std::make_shared<mc::Session>(
        std::vector<std::uint32_t>(explorer.prefix().begin(),
                                   explorer.prefix().end()));
    const ScheduleOutcome run = run_schedule(dataset, cfg, session);
    const std::uint64_t schedule = out.schedules++;
    out.max_decisions = std::max(out.max_decisions, session->decisions().size());
    if (schedule == 0 && run.completed) {
      canonical = run.digest;
      out.canonical_digest = run.digest;
    }
    if (std::optional<mc::Violation> v = judge(*session, run, canonical)) {
      out.violation = std::move(v);
      out.witness =
          make_witness(cfg, schedule, *out.violation, session->decisions());
      if (!cfg.mc.witness_path.empty())
        mc::save_witness(out.witness, cfg.mc.witness_path);
      return out;
    }
    if (!explorer.advance(session->decisions())) break;
  }
  out.exhausted = explorer.exhausted();
  return out;
}

McOutcome mc_replay(const std::vector<bio::Protein>& dataset,
                    const RunConfig& cfg) {
  cfg.validated();
  if (cfg.mc.replay_path.empty())
    throw mc::McError("mc_replay: cfg.mc.replay_path is empty");
  const mc::Witness w = mc::load_witness(cfg.mc.replay_path);

  // Re-derive the canonical digest first so matrix_identity witnesses are
  // reproducible too: the canonical schedule is cheap (one run) and by
  // construction identical to the mc-off serial run.
  McOutcome out;
  const auto canonical_session = std::make_shared<mc::Session>();
  const ScheduleOutcome canonical_run =
      run_schedule(dataset, cfg, canonical_session);
  std::optional<std::uint64_t> canonical;
  if (canonical_run.completed) {
    canonical = canonical_run.digest;
    out.canonical_digest = canonical_run.digest;
  }

  const auto session = std::make_shared<mc::Session>(w.steps);
  const ScheduleOutcome run = run_schedule(dataset, cfg, session);
  session->verify_replay_complete();
  out.schedules = 1;
  out.max_decisions = session->decisions().size();
  if (std::optional<mc::Violation> v = judge(*session, run, canonical)) {
    out.violation = std::move(v);
    out.witness =
        make_witness(cfg, w.schedule, *out.violation, session->decisions());
    out.witness.config = w.config;  // keep the original driver's label
  }
  return out;
}

}  // namespace rck
