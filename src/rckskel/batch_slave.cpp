// Batch-aware farm slave (kept as its own TU so the hot-path lint rule can
// cover the batched serving loop separately from the classic skeletons).
//
// A farm run with FarmOptions::batch > 1 sends BATCH frames: several jobs
// granted in one round trip. The slave hands the whole grant to a
// BatchWorker — the alignment farm serves it job by job from its
// pre-executed outcomes — and replies with one BATCHRESULT frame. Single
// JOB frames (Seq groups, ragged tails, batch==1 masters) are served
// through the same worker as one-job grants, so a batch slave interoperates
// with every farm() configuration.
//
// Steady-state allocation discipline mirrors the alignment kernels: the
// grant/result scratch vectors grow to the largest grant once and are
// reused; per-grant work reuses their capacity (enforced by tools/rck_lint,
// waivers mark the grow-only sites).
#include "rck/rckskel/skeletons.hpp"

namespace rck::rckskel {

void farm_slave_batch(rcce::Comm& comm, int master_ue,
                      const BatchWorker& worker, const FarmOptions& opts) {
  const obs::Handle h = comm.obs();
  if (opts.wait_ready) {
    comm.send(master_ue, encode_ready());
    if (h)
      h.instant(obs::Lane::Core, h.ids().n_ready, comm.ctx().now(),
                static_cast<std::uint64_t>(comm.ue()));
  }
  std::vector<Job> jobs;        // decoded grant (grow-only)
  std::vector<bio::Bytes> out;  // worker results (grow-only)
  for (;;) {
    // Same bounded idle wait as farm_slave: a dead or wedged master must
    // fail the simulation loudly, not leave the slave blocked forever.
    std::optional<bio::Bytes> frame =
        comm.recv_timeout(master_ue, opts.slave_idle_timeout);
    if (!frame) {
      if (!comm.ue_alive(master_ue))
        throw scc::FaultStallError(
            "farm_slave_batch: master UE " + std::to_string(master_ue) +
            " crashed; slave " + std::to_string(comm.ue()) + " orphaned");
      throw scc::DeadlockError(
          "farm_slave_batch: no traffic from master UE " +
          std::to_string(master_ue) + " within the idle timeout; slave " +
          std::to_string(comm.ue()) + " giving up");
    }
    Message msg = decode_message(std::move(*frame));
    switch (msg.type) {
      case MsgType::Job: {
        // One-job grant: serve through the batch worker, reply classically
        // so the exchange is byte-identical to a farm_slave serving it.
        const noc::SimTime t0 = comm.ctx().now();
        jobs.resize(1);  // rck-lint: allow(hot-path-alloc) grow-only scratch
        jobs[0].id = msg.job_id;
        jobs[0].payload = std::move(msg.payload);
        jobs[0].cost_hint = 0;
        out.clear();
        comm.mc_proto(mc::ProtoKind::Exec, jobs[0].id);
        worker(comm, jobs, out);
        if (out.size() != 1)
          throw SkelBatchError(
              "farm_slave_batch: worker returned " +
              std::to_string(out.size()) + " results for a 1-job grant");
        comm.send(master_ue, encode_result(jobs[0].id, out[0]));
        comm.mc_proto(mc::ProtoKind::ResultSent, jobs[0].id);
        if (h) {
          const noc::SimTime t1 = comm.ctx().now();
          h.span(obs::Lane::Core, h.ids().n_job, t0, t1, jobs[0].id);
          h.observe(h.ids().farm_slave_job_ps, t1 - t0);
        }
        break;
      }
      case MsgType::Batch: {
        const noc::SimTime t0 = comm.ctx().now();
        decode_batch_jobs(msg.payload, jobs);
        out.clear();
        for (const Job& job : jobs) comm.mc_proto(mc::ProtoKind::Exec, job.id);
        worker(comm, jobs, out);
        if (out.size() != jobs.size())
          throw SkelBatchError(
              "farm_slave_batch: worker returned " +
              std::to_string(out.size()) + " results for a grant of " +
              std::to_string(jobs.size()));
        comm.send(master_ue, encode_batch_result(jobs, out));
        for (const Job& job : jobs)
          comm.mc_proto(mc::ProtoKind::ResultSent, job.id);
        if (h) {
          const noc::SimTime t1 = comm.ctx().now();
          for (const Job& job : jobs) {
            h.span(obs::Lane::Core, h.ids().n_job, t0, t1, job.id);
            h.observe(h.ids().farm_slave_job_ps, t1 - t0);
          }
        }
        break;
      }
      case MsgType::Terminate:
        return;
      default:
        throw SkelProtocolError("farm_slave_batch: unexpected message type");
    }
  }
}

}  // namespace rck::rckskel
