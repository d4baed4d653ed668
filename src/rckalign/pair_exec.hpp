// Internal: kernel pre-execution and the slave side of every farm driver.
//
// A comparison's outcome and cycle charge depend only on its pair, never on
// which slave runs it or when. So every driver runs the comparisons it will
// farm on a host pool before its simulation starts (OutcomeTable::build),
// then simulates on the serial scheduler: a slave decodes a job's key, looks
// up the outcome, charges its cycles and replies. Shared by the flat farm
// (app.cpp), run_pairs (pairs.cpp), the blocked farm (blocked.cpp) and the
// MC-PSC / hierarchy extensions (extensions.cpp). Not part of the public
// API (lives next to the sources, not under include/).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckskel/skeletons.hpp"

namespace rck::rckalign::detail {

/// Pre-execution pool width for a driver's runtime configuration.
inline int pool_threads(const scc::RuntimeConfig& rt) {
  return std::max(1, rt.host.threads);
}

/// Pre-execute every unordered pair of `dataset` (all_pairs order) under
/// each of `methods`, serving TM-align from `cache` when one is given.
inline OutcomeTable pre_execute_all_pairs(const std::vector<bio::Protein>& dataset,
                                          std::span<const Method> methods,
                                          const scc::RuntimeConfig& rt,
                                          const PairCache* cache) {
  std::vector<const bio::Protein*> structures;
  structures.reserve(dataset.size());
  for (const bio::Protein& p : dataset) structures.push_back(&p);
  const auto pairs = all_pairs(dataset.size());
  std::vector<PairSpec> keys;
  keys.reserve(pairs.size() * methods.size());
  for (const Method m : methods)
    for (const auto& [i, j] : pairs) keys.push_back(PairSpec{i, j, m});
  return OutcomeTable::build(structures, std::move(keys), pool_threads(rt), cache);
}

/// Serve one job: look up its pre-executed outcome, charge the simulated
/// compute, and return the encoded outcome. A job without an entry is a
/// driver bug and raises AlignError.
inline bio::Bytes execute_pair_job(rcce::Comm& comm, const bio::Bytes& payload,
                                   const OutcomeTable& outcomes) {
  const PairSpec key = decode_pair_spec(payload);
  const PairEntry& e = outcomes.at(key);
  const scc::CoreTimingModel& model = comm.ctx().timing();
  PairOutcome out;
  out.i = key.a;
  out.j = key.b;
  out.method = key.method;
  out.tm_norm_a = e.tm_norm_a;
  out.tm_norm_b = e.tm_norm_b;
  out.rmsd = e.rmsd;
  out.seq_identity = e.seq_identity;
  out.aligned_length = e.aligned_length;
  out.work_cycles = model.cycles(e.stats, e.footprint_bytes);
  if (const obs::Handle h = comm.obs(); h) {
    h.add(h.ids().app_pairs);
    // Kernel time in simulated ps, pre-DVFS (the nominal cycle cost). The
    // kernel/communication split reported from metrics uses this against
    // the core's busy time.
    h.add(h.ids().app_kernel_ps,
          static_cast<std::uint64_t>(model.cycles_to_time(out.work_cycles)));
  }
  comm.charge_cycles(out.work_cycles);
  return encode_outcome(out);
}

/// Classic per-job farm worker over `outcomes`.
inline rckskel::Worker pair_worker(const OutcomeTable& outcomes) {
  return [&outcomes](rcce::Comm& c, const bio::Bytes& payload) {
    return execute_pair_job(c, payload, outcomes);
  };
}

/// Batch-pulling farm worker over `outcomes`: a grant is served job by job,
/// in grant order, so its charges and outcomes are those of K single jobs.
inline rckskel::BatchWorker pair_batch_worker(const OutcomeTable& outcomes) {
  return [&outcomes](rcce::Comm& c, std::span<const rckskel::Job> jobs,
                     std::vector<bio::Bytes>& out) {
    out.clear();
    for (const rckskel::Job& job : jobs)
      out.push_back(execute_pair_job(c, job.payload, outcomes));
  };
}

}  // namespace rck::rckalign::detail
