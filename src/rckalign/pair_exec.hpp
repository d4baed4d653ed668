// Internal: kernel pre-execution and the slave side of every farm driver.
//
// A comparison's outcome and cycle charge depend only on its pair, never on
// which slave runs it or when. So every driver runs the comparisons it will
// farm on a host pool before its simulation starts (OutcomeTable::build),
// then simulates on the serial scheduler: a slave decodes a job's key, looks
// up the outcome, charges its cycles and replies, and the master turns each
// collected reply into a row (collected_row). Shared by the flat farm
// (pairs.cpp) and its all-vs-all shims (app.cpp, extensions.cpp), the
// blocked farm (blocked.cpp) and the hierarchy (extensions.cpp). Not part
// of the public API (lives next to the sources, not under include/).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/rckskel/skeletons.hpp"

namespace rck::rckalign::detail {

/// Pre-execution pool width for a driver's runtime configuration.
inline int pool_threads(const scc::RuntimeConfig& rt) {
  return std::max(1, rt.host.threads);
}

/// The structure table of an all-vs-all run: the dataset in place.
inline std::vector<const bio::Protein*> structure_table(
    const std::vector<bio::Protein>& dataset) {
  std::vector<const bio::Protein*> structures;
  structures.reserve(dataset.size());
  for (const bio::Protein& p : dataset) structures.push_back(&p);
  return structures;
}

/// Every unordered pair of an n-chain dataset under `method`, in the
/// master's FIFO (all_pairs) order.
inline std::vector<PairSpec> all_pair_specs(std::size_t n, Method method) {
  const auto pairs = all_pairs(n);
  std::vector<PairSpec> specs;
  specs.reserve(pairs.size());
  for (const auto& [i, j] : pairs) specs.push_back(PairSpec{i, j, method});
  return specs;
}

/// The row of a collected farm result: the job id is the spec index, the
/// payload an encoded PairOutcome.
inline PairRow collected_row(rckskel::JobResult& jr) {
  const PairOutcome o = decode_outcome(std::move(jr.payload));
  return PairRow{.spec = jr.id,
                 .work_cycles = o.work_cycles,
                 .tm_norm_a = o.tm_norm_a,
                 .tm_norm_b = o.tm_norm_b,
                 .rmsd = o.rmsd,
                 .seq_identity = o.seq_identity,
                 .i = o.i,
                 .j = o.j,
                 .aligned_length = o.aligned_length,
                 .worker = jr.worker,
                 .method = o.method};
}

/// Does a job for `s` carry its exact cycles as cost hint? Only a cached
/// TM-align spec does; every other spec carries the O(L1*L2) proxy.
inline bool has_cycle_hint(const PairSpec& s, const PairCache* cache) {
  return cache != nullptr && s.method == Method::TmAlign;
}

/// One farm job per spec, ids from `first_id` in spec order, payloads from
/// encode_pair_jobs (one serialization per referenced structure). Cost hint,
/// for LPT order and derived leases: see has_cycle_hint.
inline std::vector<rckskel::Job> make_pair_jobs(
    std::span<const bio::Protein* const> structures, std::span<const PairSpec> specs,
    const PairCache* cache, const scc::CoreTimingModel& model,
    std::uint64_t first_id = 0) {
  std::vector<bio::Bytes> payloads = encode_pair_jobs(structures, specs);
  std::vector<rckskel::Job> jobs;
  jobs.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    rckskel::Job job;
    job.id = first_id + k;
    job.payload = std::move(payloads[k]);
    job.cost_hint = has_cycle_hint(s, cache)
                        ? cache->pair_cycles(s.a, s.b, model)
                        : static_cast<std::uint64_t>(structures[s.a]->size()) *
                              structures[s.b]->size();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Pre-execute every unordered pair of `dataset` under TM-align, serving
/// from `cache` when one is given.
inline OutcomeTable pre_execute_all_pairs(const std::vector<bio::Protein>& dataset,
                                          const scc::RuntimeConfig& rt,
                                          const PairCache* cache) {
  return OutcomeTable::build(structure_table(dataset),
                             all_pair_specs(dataset.size(), Method::TmAlign),
                             pool_threads(rt), cache);
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

/// Farm worker over `outcomes`. farm_slave serves a batched grant through
/// it job by job, so a grant's charges and outcomes are those of K single
/// jobs.
inline rckskel::Worker pair_worker(const OutcomeTable& outcomes) {
  return [&outcomes](rcce::Comm& c, const bio::Bytes& payload) {
    return execute_pair_job(c, payload, outcomes);
  };
}

}  // namespace rck::rckalign::detail
