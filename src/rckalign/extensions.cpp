#include "rck/rckalign/extensions.hpp"

#include <numeric>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/error.hpp"
#include "rck/rckskel/skeletons.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

MultiMethodRun run_multi_method(const std::vector<bio::Protein>& dataset,
                                const MultiMethodOptions& opts) {
  if (dataset.size() < 2)
    throw AlignError("run_multi_method: need >= 2 chains");
  if (opts.groups.empty())
    throw AlignError("run_multi_method: no method groups");

  // Method-major specs: group g's pairs are specs [g * npairs, (g+1) * npairs).
  const std::size_t npairs = all_pairs(dataset.size()).size();
  PairsOptions popts;
  popts.slave_count = 0;
  popts.runtime = opts.runtime;
  popts.cache = opts.cache;
  popts.lpt = opts.lpt;
  std::vector<PairSpec> specs;
  std::vector<SlaveGroup> partition;
  for (const MethodGroup& g : opts.groups) {
    if (g.slaves < 1) throw AlignError("run_multi_method: empty group");
    popts.slave_count += g.slaves;
    partition.push_back(SlaveGroup{g.slaves, npairs});
    const std::vector<PairSpec> group = detail::all_pair_specs(dataset.size(), g.method);
    specs.insert(specs.end(), group.begin(), group.end());
  }
  PairsRun pr = run_pairs(detail::structure_table(dataset), specs, popts, partition);

  MultiMethodRun run;
  run.makespan = pr.makespan;
  run.results.resize(opts.groups.size());
  for (const PairRow& r : pr.results) run.results[r.spec / npairs].push_back(r);
  run.core_reports = std::move(pr.core_reports);
  return run;
}

// ---------------------------------------------------------------------------
// Hierarchical masters.
//
// Rank layout: 0 = root master; 1..G = group masters; the remaining ranks
// are leaf slaves, split evenly across groups. The root farms *batches*
// (several jobs packed into one payload) to group masters; a group master
// unpacks each batch and farms its jobs to its own slaves, returning the
// packed results. Leaf slaves never talk to the root.
// ---------------------------------------------------------------------------

namespace {

bio::Bytes pack_batch(std::span<const rckskel::Job* const> jobs) {
  bio::WireWriter w;
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const rckskel::Job* j : jobs) {
    w.u64(j->id);
    w.u64(j->cost_hint);
    w.u32(static_cast<std::uint32_t>(j->payload.size()));
    w.raw(j->payload);
  }
  return w.take();
}

std::vector<rckskel::Job> unpack_batch(const bio::Bytes& raw) {
  bio::WireReader r(raw);
  const std::uint32_t n = r.count(8 + 8 + 4);  // id, cost hint, length
  std::vector<rckskel::Job> jobs;
  jobs.reserve(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    rckskel::Job j;
    j.id = r.u64();
    j.cost_hint = r.u64();
    const std::uint32_t len = r.u32();
    j.payload = r.raw(len);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

bio::Bytes pack_results(std::span<const rckskel::JobResult> results) {
  bio::WireWriter w;
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const rckskel::JobResult& res : results) {
    w.u64(res.id);
    w.i32(res.worker);
    w.u32(static_cast<std::uint32_t>(res.payload.size()));
    w.raw(res.payload);
  }
  return w.take();
}

std::vector<rckskel::JobResult> unpack_results(const bio::Bytes& raw) {
  bio::WireReader r(raw);
  const std::uint32_t n = r.count(8 + 4 + 4);  // id, worker, length
  std::vector<rckskel::JobResult> out;
  out.reserve(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    rckskel::JobResult res;
    res.id = r.u64();
    res.worker = r.i32();
    const std::uint32_t len = r.u32();
    res.payload = r.raw(len);
    out.push_back(std::move(res));
  }
  return out;
}

}  // namespace

HierarchyRun run_hierarchical(const std::vector<bio::Protein>& dataset,
                              const HierarchyOptions& opts) {
  if (dataset.size() < 2) throw AlignError("run_hierarchical: need >= 2 chains");
  const int g = opts.group_count;
  if (g < 1 || opts.slave_count < g)
    throw AlignError("run_hierarchical: need at least one slave per group");
  const int nranks = 1 + g + opts.slave_count;
  if (nranks > opts.runtime.chip.core_count())
    throw AlignError("run_hierarchical: does not fit on chip");
  if (opts.cache != nullptr && opts.cache->chain_count() != dataset.size())
    throw AlignError("run_hierarchical: cache/dataset mismatch");

  // Split leaf slaves across groups as evenly as possible.
  std::vector<std::vector<int>> group_slaves(static_cast<std::size_t>(g));
  for (int s = 0; s < opts.slave_count; ++s)
    group_slaves[static_cast<std::size_t>(s % g)].push_back(1 + g + s);

  HierarchyRun run;
  scc::SpmdRuntime rt(opts.runtime);
  const PairCache* cache = opts.cache;
  const OutcomeTable outcomes =
      detail::pre_execute_all_pairs(dataset, opts.runtime, cache);

  const auto program = [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);
    constexpr int kRoot = 0;
    const int ue = comm.ue();
    if (ue == kRoot) {
      std::uint64_t dataset_bytes = 0;
      for (const bio::Protein& p : dataset) dataset_bytes += p.wire_size();
      comm.charge_dram_read(dataset_bytes);

      const std::vector<rckskel::Job> jobs = detail::make_pair_jobs(
          detail::structure_table(dataset),
          detail::all_pair_specs(dataset.size(), Method::TmAlign), cache, ctx.timing());

      // One strided batch per group: each group gets every G-th job (a
      // cost-mixed static partition), farms it dynamically on its own
      // slaves, and synchronizes exactly once. A group master serves one
      // batch at a time and returns only when the whole batch finished, so
      // smaller batches would add per-batch barriers that idle the group's
      // slaves on stragglers.
      std::vector<rckskel::Job> batches;
      std::size_t next_batch_id = 0;
      for (std::size_t grp = 0; grp < static_cast<std::size_t>(g); ++grp) {
        std::vector<const rckskel::Job*> slice;
        std::uint64_t hint = 0;
        for (std::size_t k = grp; k < jobs.size(); k += static_cast<std::size_t>(g)) {
          slice.push_back(&jobs[k]);
          hint += jobs[k].cost_hint;
        }
        if (slice.empty()) continue;
        rckskel::Job batch;
        batch.id = next_batch_id++;
        batch.payload = pack_batch(slice);
        batch.cost_hint = hint;
        batches.push_back(std::move(batch));
      }

      std::vector<int> masters(static_cast<std::size_t>(g));
      std::iota(masters.begin(), masters.end(), 1);
      const rckskel::Task task = rckskel::Task::make_par(masters, std::move(batches));
      std::vector<rckskel::JobResult> collected = rckskel::farm(comm, task, {});
      for (rckskel::JobResult& batch_res : collected) {
        for (rckskel::JobResult& jr : unpack_results(batch_res.payload))
          run.results.push_back(detail::collected_row(jr));
      }
    } else if (ue <= g) {
      // Group master: serve batches from the root; farm each batch to the
      // group's slaves, keeping the slaves alive across batches.
      const std::vector<int>& my_slaves = group_slaves[static_cast<std::size_t>(ue - 1)];
      bool first_batch = true;
      rckskel::farm_slave(
          comm, kRoot,
          [&](rcce::Comm& c, const bio::Bytes& payload) {
            std::vector<rckskel::Job> jobs = unpack_batch(payload);
            rckskel::FarmOptions fopts;
            fopts.wait_ready = first_batch;
            fopts.send_terminate = false;
            first_batch = false;
            const rckskel::Task task = rckskel::Task::make_par(my_slaves, std::move(jobs));
            const std::vector<rckskel::JobResult> results = rckskel::farm(c, task, fopts);
            return pack_results(results);
          });
      rckskel::terminate(comm, my_slaves);
    } else {
      // Leaf slave: find my group master.
      const int my_master = 1 + (ue - 1 - g) % g;
      rckskel::farm_slave(comm, my_master, detail::pair_worker(outcomes));
    }
  };

  run.makespan = rt.run(nranks, program);
  run.core_reports = rt.core_reports();
  return run;
}

}  // namespace rck::rckalign
