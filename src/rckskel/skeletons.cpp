#include "rck/rckskel/skeletons.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <utility>

#include "rck/rckskel/checkpoint.hpp"

namespace rck::rckskel {

void Env::log(int level, const std::string& msg) const {
  if (level > debug_level_) return;
  std::fprintf(stderr, "[%s t=%.6fs] %s\n", comm_->ue_name().c_str(), comm_->wtime(),
               msg.c_str());
}

Task Task::make_par(std::vector<int> ues, std::vector<Job> jobs) {
  Task t;
  t.mode = Mode::Par;
  t.ue_ids = std::move(ues);
  t.jobs = std::move(jobs);
  return t;
}

Task Task::make_seq(std::vector<int> ues, std::vector<Job> jobs) {
  Task t;
  t.mode = Mode::Seq;
  t.ue_ids = std::move(ues);
  t.jobs = std::move(jobs);
  return t;
}

Task Task::make_group(Mode mode, std::vector<int> ues, std::vector<Task> children) {
  Task t;
  t.mode = mode;
  t.ue_ids = std::move(ues);
  t.children = std::move(children);
  return t;
}

std::size_t Task::job_count() const noexcept {
  std::size_t n = jobs.size();
  for (const Task& c : children) n += c.job_count();
  return n;
}

namespace {

JobResult recv_result(rcce::Comm& comm, int ue) {
  Message msg = decode_message(comm.recv(ue));
  if (msg.type != MsgType::Result)
    throw SkelProtocolError("rckskel: expected RESULT from UE " + std::to_string(ue));
  return JobResult{msg.job_id, ue, std::move(msg.payload)};
}

/// Flattened view of a task tree used by the farm engine: every leaf becomes
/// a group of jobs with its UE set, Seq mode flag and an optional predecessor
/// group that must fully complete first (Seq ordering between siblings).
struct FlatGroup {
  std::vector<int> ues;
  bool seq = false;
  std::vector<const Job*> jobs;  // dispatch order (post cost sorting)
  int after = -1;                // group index that must complete first
  std::size_t completed = 0;
  bool inflight = false;         // a Seq group has at most one job in flight
};

int flatten(const Task& task, std::span<const int> inherited_ues,
            std::vector<FlatGroup>& out, int after) {
  const std::span<const int> ues =
      task.ue_ids.empty() ? inherited_ues : std::span<const int>(task.ue_ids);
  int last = after;
  if (!task.jobs.empty()) {
    if (ues.empty())
      throw SkelError("rckskel: task with jobs has no UEs");
    FlatGroup g;
    g.ues.assign(ues.begin(), ues.end());
    g.seq = task.mode == Task::Mode::Seq;
    g.after = after;
    for (const Job& j : task.jobs) g.jobs.push_back(&j);
    out.push_back(std::move(g));
    last = static_cast<int>(out.size()) - 1;
  }
  for (const Task& child : task.children) {
    const int child_after = task.mode == Task::Mode::Seq ? last : after;
    const int child_last = flatten(child, ues, out, child_after);
    if (task.mode == Task::Mode::Seq) last = child_last;
  }
  return last;
}

bool group_complete(const std::vector<FlatGroup>& groups, int idx) {
  if (idx < 0) return true;
  const FlatGroup& g = groups[static_cast<std::size_t>(idx)];
  return g.completed == g.jobs.size() &&
         group_complete(groups, g.after);  // chains are short; recursion fine
}

}  // namespace

std::vector<JobResult> seq(rcce::Comm& comm, std::span<const int> ues,
                           std::span<const Job> jobs) {
  if (ues.empty()) throw SkelError("seq: no UEs");
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const int ue = ues[k % ues.size()];
    comm.send(ue, encode_job(jobs[k]));
    results.push_back(recv_result(comm, ue));
  }
  return results;
}

void par(rcce::Comm& comm, std::span<const int> ues, std::span<const Job> jobs) {
  if (ues.empty()) throw SkelError("par: no UEs");
  for (std::size_t k = 0; k < jobs.size(); ++k)
    comm.send(ues[k % ues.size()], encode_job(jobs[k]));
}

std::vector<JobResult> collect(rcce::Comm& comm, std::span<const int> ues,
                               std::size_t expected) {
  if (ues.empty() && expected > 0)
    throw scc::SimError("collect: empty UE set with results expected");
  std::vector<JobResult> results;
  results.reserve(expected);
  while (results.size() < expected) {
    const int ue = comm.wait_any(ues);
    results.push_back(recv_result(comm, ue));
  }
  return results;
}

void terminate(rcce::Comm& comm, std::span<const int> ues) {
  for (int ue : ues) comm.send(ue, encode_terminate());
}

std::vector<JobResult> pipe(rcce::Comm& comm, std::span<const int> stage_ues,
                            std::span<const Job> items) {
  if (stage_ues.empty()) throw SkelError("pipe: no stages");
  for (int ue : stage_ues)
    if (ue == comm.ue())
      throw SkelError("pipe: master UE cannot be a stage");

  const int first = stage_ues.front();
  const int last = stage_ues.back();

  // Stream everything into the first stage; the chain's per-link FIFO
  // ordering guarantees results come back in submission order.
  for (const Job& item : items) comm.send(first, encode_job(item));
  comm.send(first, encode_terminate());

  std::vector<JobResult> results;
  results.reserve(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    Message msg = decode_message(comm.recv(last));
    if (msg.type != MsgType::Job)
      throw SkelProtocolError("pipe: expected item from last stage");
    results.push_back(JobResult{msg.job_id, last, std::move(msg.payload)});
  }
  // Drain the propagated TERMINATE so the master's inbox ends clean.
  const Message fin = decode_message(comm.recv(last));
  if (fin.type != MsgType::Terminate)
    throw SkelProtocolError("pipe: expected trailing TERMINATE");
  return results;
}

void pipe_stage(rcce::Comm& comm, int upstream_ue, int downstream_ue,
                const Worker& worker) {
  for (;;) {
    Message msg = decode_message(comm.recv(upstream_ue));
    switch (msg.type) {
      case MsgType::Job: {
        Job out;
        out.id = msg.job_id;
        out.payload = worker(comm, msg.payload);
        comm.send(downstream_ue, encode_job(out));
        break;
      }
      case MsgType::Terminate:
        comm.send(downstream_ue, encode_terminate());
        return;
      default:
        throw SkelProtocolError("pipe_stage: unexpected message type");
    }
  }
}

namespace {

/// The one farm-slave loop behind farm_slave and farm_slave_ft: the paper's
/// client_receive_job. A null `lease` is the plain FARM's slave. Under
/// leases the loop reads master_silence_timeout instead of
/// slave_idle_timeout, outlasts or re-homes from a silent master instead of
/// failing, and skips corrupt frames and protocol noise.
void run_slave(rcce::Comm& comm, int master_ue, const Worker& worker,
               const FarmOptions& opts, const FaultTolerantFarmOptions* lease) {
  const noc::SimTime window =
      lease != nullptr ? lease->master_silence_timeout : opts.slave_idle_timeout;
  // A zero window returns from every timed receive at once without
  // advancing simulated time: the slave would spin on its fiber forever.
  if (window == 0)
    throw SkelError(lease != nullptr
                        ? "farm_slave_ft: master_silence_timeout must be > 0"
                        : "farm_slave: slave_idle_timeout must be > 0");
  const obs::Handle h = comm.obs();
  const auto send_ready = [&](int to) {
    comm.send(to, encode_ready());
    if (h)
      h.instant(obs::Lane::Core, h.ids().n_ready, comm.ctx().now(),
                static_cast<std::uint64_t>(comm.ue()));
  };
  int master = master_ue;
  if (opts.wait_ready) send_ready(master);
  // BATCH scratch: the decoded grant and its results grow to the largest
  // grant once and are reused after that.
  std::vector<Job> grant;
  std::vector<bio::Bytes> outs;
  for (;;) {
    std::optional<bio::Bytes> frame = comm.recv_timeout(master, window);
    if (!frame) {
      const bool alive = comm.ue_alive(master);
      if (lease == nullptr) {
        // The plain farm assumes a reliable master, but a crashed (or
        // wedged) one must fail the simulation loudly rather than leave
        // this slave waiting forever.
        if (!alive)
          throw scc::FaultStallError(
              "farm_slave: master UE " + std::to_string(master) +
              " crashed; slave " + std::to_string(comm.ue()) + " orphaned");
        throw scc::DeadlockError(
            "farm_slave: no traffic from master UE " + std::to_string(master) +
            " within the idle timeout; slave " + std::to_string(comm.ue()) +
            " giving up");
      }
      if (alive) continue;  // quiet spell; keep listening
      // Orphaned by a master crash: re-home onto the standby (announcing
      // ourselves with a fresh READY) or, with no standby configured, return.
      if (lease->standby_ue < 0 || lease->standby_ue == master ||
          lease->standby_ue == comm.ue())
        return;
      master = lease->standby_ue;
      send_ready(master);
      continue;
    }
    Message msg;
    try {
      msg = decode_message(std::move(*frame));
      if (msg.type == MsgType::Batch) decode_batch_jobs(msg.payload, grant);
    } catch (const bio::WireError&) {
      if (lease == nullptr) throw;
      continue;  // corrupted frame: the master's lease re-sends its job
    }
    const noc::SimTime t0 = comm.ctx().now();
    switch (msg.type) {
      case MsgType::Job: {
        comm.mc_proto(mc::ProtoKind::Exec, msg.job_id);
        const bio::Bytes out = worker(comm, msg.payload);
        comm.send(master, encode_result(msg.job_id, out));
        comm.mc_proto(mc::ProtoKind::ResultSent, msg.job_id);
        if (h) {
          const noc::SimTime t1 = comm.ctx().now();
          h.span(obs::Lane::Core, h.ids().n_job, t0, t1, msg.job_id);
          h.observe(h.ids().farm_slave_job_ps, t1 - t0);
        }
        break;
      }
      case MsgType::Batch: {
        // Every job's span covers the whole grant.
        outs.clear();
        for (const Job& job : grant) comm.mc_proto(mc::ProtoKind::Exec, job.id);
        for (const Job& job : grant) outs.push_back(worker(comm, job.payload));
        comm.send(master, encode_batch_result(grant, outs));
        for (const Job& job : grant)
          comm.mc_proto(mc::ProtoKind::ResultSent, job.id);
        if (h) {
          const noc::SimTime t1 = comm.ctx().now();
          for (const Job& job : grant) {
            h.span(obs::Lane::Core, h.ids().n_job, t0, t1, job.id);
            h.observe(h.ids().farm_slave_job_ps, t1 - t0);
          }
        }
        break;
      }
      case MsgType::Terminate:
        return;
      default:
        if (lease == nullptr)
          throw SkelProtocolError("farm_slave: unexpected message type");
        break;  // protocol noise under leases
    }
  }
}

/// Master-side context for the master-ft protocol: checkpoint/heartbeat
/// replication towards a standby (primary master), or the state to resume
/// from after a takeover (promoted standby). Null for farm and farm_ft.
struct MasterCtx {
  const MasterFtOptions* mft = nullptr;
  const FarmCheckpoint* resume = nullptr;  ///< snapshot to resume from
  noc::SimTime failover_detected = 0;      ///< != 0: running as promoted standby
};

/// The one farm master loop behind farm, farm_ft, farm_ft_master and a
/// promoted farm_standby. A null `lease` is the paper's FARM: an untimed
/// READY handshake, untimed waits, batched grants, and a throw on any
/// protocol or wire error. Otherwise every job is leased (see the
/// fault-tolerant FARM comment in the header), and `mctx` adds standby
/// replication or a takeover.
std::vector<JobResult> run_farm(rcce::Comm& comm, const Task& task,
                                const FarmOptions& opts,
                                const FaultTolerantFarmOptions* lease,
                                FarmReport* report, MasterCtx* mctx) {
  const obs::Handle h = comm.obs();
  const noc::SimTime farm_start = comm.ctx().now();
  const std::string who = lease != nullptr ? "farm_ft: " : "farm: ";
  const bool promoted = mctx != nullptr && mctx->failover_detected != 0;
  if (lease == nullptr) {
    if (opts.batch == 0) throw SkelBatchError("farm: batch must be >= 1");
  } else if (opts.batch != 1) {
    throw SkelBatchError(
        "farm_ft: batched grants are not supported — the fault-tolerant "
        "farms lease, retry and deduplicate individual jobs");
  } else if (!opts.send_terminate) {
    // farm_slave_ft treats a silent but live master as alive and stops only
    // on TERMINATE, so a master that never sends it would strand every slave.
    throw SkelError(
        "farm_ft: send_terminate must stay on — fault-tolerant slaves stop "
        "only on TERMINATE");
  } else if (!promoted && opts.wait_ready && lease->ready_timeout == 0) {
    // A deadline that is already due blacklists every slave before any
    // READY can arrive, so the farm could only fail.
    throw SkelError("farm_ft: ready_timeout must be > 0 while waiting for READY");
  }
  const bool replicate = mctx != nullptr && !promoted;
  const int standby = replicate ? lease->standby_ue : -1;
  const ProtocolMutant mutant =
      lease != nullptr ? lease->mutant : ProtocolMutant::None;
  std::vector<FlatGroup> groups;
  flatten(task, {}, groups, -1);

  std::size_t total = 0;
  std::vector<int> slaves;  // union of all UE sets, ascending, deduplicated
  for (FlatGroup& g : groups) {
    total += g.jobs.size();
    for (int ue : g.ues) {
      if (ue == comm.ue())
        throw SkelError(who + "master UE cannot be a slave");
      slaves.push_back(ue);
    }
    if (opts.lpt_order)
      std::stable_sort(g.jobs.begin(), g.jobs.end(),
                       [](const Job* a, const Job* b) { return a->cost_hint > b->cost_hint; });
  }
  std::sort(slaves.begin(), slaves.end());
  slaves.erase(std::unique(slaves.begin(), slaves.end()), slaves.end());
  if (slaves.empty()) throw SkelError(who + "no slave UEs");
  if (replicate && std::binary_search(slaves.begin(), slaves.end(), standby))
    throw SkelError("farm_ft: standby UE cannot be a slave");
  const auto slave_index = [&](int ue) {
    return static_cast<std::size_t>(
        std::lower_bound(slaves.begin(), slaves.end(), ue) - slaves.begin());
  };

  // Every job gets a tracker carrying its lease and attempt state, keyed by
  // job id, so ids must be unique across the whole task tree.
  struct Tracked {
    const Job* job = nullptr;
    std::size_t group = 0;
    int attempts = 0;
    int slave = -1;  // slave *index* of the latest dispatch, -1 = never sent
    noc::SimTime dispatched_at = 0;
    noc::SimTime lease_deadline = 0;
    bool done = false;
  };
  std::vector<Tracked> tracked;
  tracked.reserve(total);
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;  // sorted by id
  by_id.reserve(total);
  std::vector<std::deque<std::size_t>> pending(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (const Job* j : groups[gi].jobs) {
      by_id.emplace_back(j->id, tracked.size());
      pending[gi].push_back(tracked.size());
      tracked.push_back(Tracked{j, gi, 0, -1, 0, 0, false});
    }
  }
  std::sort(by_id.begin(), by_id.end());
  const auto dup = std::adjacent_find(
      by_id.begin(), by_id.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (dup != by_id.end())
    throw SkelError(who + "duplicate job id " + std::to_string(dup->first));
  // Tracked index of job `id`, or tracked.size() when no job has that id.
  const auto find_job = [&](std::uint64_t id) {
    const auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                     std::pair<std::uint64_t, std::size_t>{id, 0});
    return it != by_id.end() && it->first == id ? it->second : tracked.size();
  };

  FarmReport rep;
  rep.jobs = total;
  std::vector<char> alive(slaves.size(), 1);
  const auto publish_live = [&]() {
    if (!h) return;
    const auto live = std::count(alive.begin(), alive.end(), char{1});
    h.set_gauge(h.ids().farm_live_slaves, static_cast<double>(live),
                comm.ctx().now());
  };
  if (lease != nullptr) publish_live();
  const auto blacklist = [&](std::size_t si) {
    if (!alive[si]) return;
    alive[si] = 0;
    // dead_ues is a historical log: a slave that later rejoins (restarted
    // core, late READY) stays listed but is not re-added on a second death.
    if (std::find(rep.dead_ues.begin(), rep.dead_ues.end(), slaves[si]) ==
        rep.dead_ues.end())
      rep.dead_ues.push_back(slaves[si]);
    publish_live();
  };
  const auto rejoin = [&](std::size_t si) {
    if (alive[si]) return;
    alive[si] = 1;
    publish_live();
  };

  // check_ready. The plain FARM polls every slave, untimed, and accepts
  // exactly one READY from each. Under leases the handshake has a deadline:
  // it polls only the slaves not yet heard from, any frame proves a slave
  // alive (a corrupt READY still came from a live core), and slaves silent
  // past the deadline are blacklisted before the first job is risked on
  // them. A promoted standby skips the handshake: surviving slaves re-home
  // on their own silence timeout, and the main loop absorbs their READY.
  if (!promoted && opts.wait_ready) {
    const noc::SimTime deadline =
        comm.ctx().now() + (lease != nullptr ? lease->ready_timeout : 0);
    std::vector<char> seen(slaves.size(), 0);
    std::vector<int> waiting;
    for (std::size_t ready = 0; ready < slaves.size(); ++ready) {
      int ue = -1;
      if (lease == nullptr) {
        ue = comm.wait_any(slaves);
      } else {
        waiting.clear();
        for (std::size_t si = 0; si < slaves.size(); ++si)
          if (!seen[si]) waiting.push_back(slaves[si]);
        const noc::SimTime now = comm.ctx().now();
        ue = now < deadline ? comm.wait_any_timeout(waiting, deadline - now) : -1;
        if (ue < 0) {
          for (std::size_t si = 0; si < slaves.size(); ++si)
            if (!seen[si]) blacklist(si);
          break;
        }
      }
      const std::size_t si = slave_index(ue);
      if (seen[si])  // no job was sent yet, so this frame cannot be a RESULT
        throw SkelProtocolError(who + "duplicate READY from UE " + std::to_string(ue));
      try {
        const Message msg = decode_message(comm.recv(ue));
        if (msg.type != MsgType::Ready)
          throw SkelProtocolError(who + "expected READY from UE " + std::to_string(ue));
      } catch (const bio::WireError&) {
        if (lease == nullptr) throw;
        ++rep.corrupt_frames;
      }
      seen[si] = 1;
    }
    if (lease != nullptr && rep.dead_ues.size() == slaves.size())
      throw FarmFailedError("farm_ft: no slave answered READY");
  }

  const auto lease_for = [&](const Tracked& t) {
    noc::SimTime base = lease->lease;
    if (base == 0) {
      const noc::SimTime est = comm.ctx().timing().cycles_to_time(t.job->cost_hint);
      base = lease->lease_margin +
             static_cast<noc::SimTime>(lease->lease_slack * static_cast<double>(est));
    }
    double mult = 1.0;
    for (int a = 1; a < t.attempts; ++a) mult *= lease->retry_backoff;
    return static_cast<noc::SimTime>(static_cast<double>(base) * mult);
  };

  std::vector<JobResult> results;
  results.reserve(total);
  std::size_t completed = 0;
  // slave_job[si]: a tracked index granted to slave si, or -1 when it is free.
  std::vector<int> slave_job(slaves.size(), -1);
  // Job ids sent to si and not yet resolved: FIFO per-flow ordering lets a
  // checksum failure be attributed to the oldest outstanding frame. On the
  // plain FARM this is the slave's current grant.
  std::vector<std::vector<std::uint64_t>> outstanding(slaves.size());
  // A promoted standby dispatches before the surviving slaves have noticed
  // the old master is dead; until a slave's first frame reaches *this*
  // master, its leases carry the worst-case re-home latency (the slave's
  // silence timeout) so an un-re-homed slave is not burned through
  // max_attempts while the JOB frame sits unread in its inbox.
  std::vector<char> rehomed(slaves.size(), promoted ? 0 : 1);

  const auto requeue = [&](std::size_t ti) {
    Tracked& t = tracked[ti];
    FlatGroup& g = groups[t.group];
    if (g.seq) g.inflight = false;
    pending[t.group].push_front(ti);  // retry before untouched work
  };

  bool double_granted = false;  // the DoubleGrant mutant fires once
  std::vector<std::size_t> grant;  // tracked indices of one dispatch
  std::vector<const Job*> pack;    // their jobs, for a BATCH frame
  const auto try_dispatch = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t si = 0; si < slaves.size(); ++si) {
        if (!alive[si] || slave_job[si] != -1) continue;
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
          FlatGroup& g = groups[gi];
          if (pending[gi].empty()) continue;
          if (g.seq && g.inflight) continue;
          if (!group_complete(groups, g.after)) continue;
          if (std::find(g.ues.begin(), g.ues.end(), slaves[si]) == g.ues.end()) continue;
          std::size_t pi = 0;
          if (mutant == ProtocolMutant::DropLeaseRenewal) {
            // Part of the seeded bug: the retry path shuns the slave whose
            // lease just expired, so the expired job waits for a different
            // slave — and overlaps the still-running original executor.
            while (pi < pending[gi].size() &&
                   tracked[pending[gi][pi]].slave == static_cast<int>(si))
              ++pi;
            if (pi == pending[gi].size()) continue;
          }
          // Grant size: Seq groups release one job at a time (ordering);
          // Par groups take up to opts.batch of the group's pending jobs
          // (always 1 under leases). A single-job grant always travels as a
          // plain JOB frame, so batch == 1 is the classic per-job farm.
          const std::size_t n = g.seq ? 1 : std::min(opts.batch, pending[gi].size());
          const auto first = pending[gi].begin() + static_cast<std::ptrdiff_t>(pi);
          grant.assign(first, first + static_cast<std::ptrdiff_t>(n));
          pending[gi].erase(first, first + static_cast<std::ptrdiff_t>(n));
          for (const std::size_t ti : grant) {
            Tracked& t = tracked[ti];
            ++t.attempts;
            ++rep.attempts;
            if (t.attempts > 1) {
              ++rep.retries;
              if (t.slave != static_cast<int>(si)) {
                ++rep.reassignments;
                // Annotate the old slave's result flow: if a stale frame
                // from the previous lease holder later races the
                // replacement's result, the report's flag chain shows this
                // hand-off.
                if (t.slave >= 0)
                  comm.chk_note(slaves[static_cast<std::size_t>(t.slave)],
                                comm.ue(), "farm_ft.reassign", t.job->id);
              }
            }
            if (lease != nullptr && t.attempts > lease->max_attempts)
              throw FarmFailedError("farm_ft: job " + std::to_string(t.job->id) +
                                    " exceeded max_attempts");
          }
          const noc::SimTime t0 = comm.ctx().now();
          if (n == 1) {
            comm.send(slaves[si], encode_job(*tracked[grant.front()].job));
          } else {
            pack.clear();
            for (const std::size_t ti : grant) pack.push_back(tracked[ti].job);
            comm.send(slaves[si], encode_batch(pack));
          }
          for (const std::size_t ti : grant)
            comm.mc_proto(mc::ProtoKind::Grant, tracked[ti].job->id,
                          static_cast<std::uint64_t>(slaves[si]));
          // The plain FARM stamps a dispatch before its send, a lease after.
          const noc::SimTime sent = lease != nullptr ? comm.ctx().now() : t0;
          for (const std::size_t ti : grant) {
            Tracked& t = tracked[ti];
            t.slave = static_cast<int>(si);
            t.dispatched_at = sent;
            outstanding[si].push_back(t.job->id);
            if (lease == nullptr) continue;
            t.lease_deadline = sent + lease_for(t);
            if (!rehomed[si]) t.lease_deadline += lease->master_silence_timeout;
            if (mutant == ProtocolMutant::DropLeaseRenewal) {
              // Seeded bug: the margin/slack/backoff renewal is dropped — the
              // lease covers only a quarter of the estimated compute, so it
              // expires while the slave is still mid-execution and the job
              // is regranted behind a live executor's back.
              t.lease_deadline =
                  sent + std::max<noc::SimTime>(
                             comm.ctx().timing().cycles_to_time(t.job->cost_hint) / 4,
                             1);
            }
          }
          slave_job[si] = static_cast<int>(grant.front());
          if (g.seq) g.inflight = true;
          if (mutant == ProtocolMutant::DoubleGrant && !double_granted) {
            // Seeded bug: the same job is also sent to another free live
            // slave, but the lease table is not updated — the master forgets
            // the extra grant entirely.
            const Job& job = *tracked[grant.front()].job;
            for (std::size_t sj = 0; sj < slaves.size(); ++sj) {
              if (sj == si || !alive[sj] || slave_job[sj] != -1) continue;
              comm.send(slaves[sj], encode_job(job));
              comm.mc_proto(mc::ProtoKind::Grant, job.id,
                            static_cast<std::uint64_t>(slaves[sj]));
              double_granted = true;
              break;
            }
          }
          if (h) {
            for (const std::size_t ti : grant) {
              const Tracked& t = tracked[ti];
              h.add(h.ids().farm_jobs);
              // One async lifecycle span per job id: opened by the first
              // attempt, closed by the accepted result; retries show up as
              // extra dispatch markers inside it.
              if (t.attempts == 1)
                h.async_begin(obs::Lane::Farm, h.ids().n_job, sent, t.job->id);
              h.instant(obs::Lane::Farm, h.ids().n_dispatch, sent, t.job->id);
            }
          }
          progress = true;
          break;
        }
      }
    }
  };

  // ---- Resume from a checkpoint (promoted standby) -------------------------
  if (mctx != nullptr && mctx->resume != nullptr) {
    const FarmCheckpoint& ck = *mctx->resume;
    rep = ck.report;
    rep.jobs = total;  // the task tree is authoritative
    for (const int dead : rep.dead_ues)
      if (std::binary_search(slaves.begin(), slaves.end(), dead))
        alive[slave_index(dead)] = 0;
    for (const FarmCheckpoint::JobAttempts& a : ck.attempts) {
      const std::size_t ti = find_job(a.id);
      if (ti == tracked.size())
        throw CheckpointError("checkpoint: attempts for unknown job " +
                              std::to_string(a.id));
      tracked[ti].attempts = static_cast<int>(a.attempts);
    }
    for (const JobResult& res : ck.done) {
      const std::size_t ti = find_job(res.id);
      if (ti == tracked.size())
        throw CheckpointError("checkpoint: result for unknown job " +
                              std::to_string(res.id));
      Tracked& t = tracked[ti];
      if (t.done) continue;
      t.done = true;
      comm.mc_proto(mc::ProtoKind::Restore, res.id);
      ++completed;
      ++groups[t.group].completed;
      results.push_back(res);
    }
    rep.resumed_jobs = ck.done.size();
    for (std::deque<std::size_t>& dq : pending)
      std::erase_if(dq, [&](std::size_t ti) { return tracked[ti].done; });
    publish_live();
  }

  // ---- Takeover: re-establish leases with the surviving slaves -------------
  if (promoted) {
    ++rep.failovers;
    for (std::size_t si = 0; si < slaves.size(); ++si)
      if (alive[si] && !comm.ue_alive(slaves[si])) blacklist(si);
    // Dispatch straight away: slaves still pointed at the dead master pick
    // these frames up as soon as their own silence timeout re-homes them.
    if (completed < total) try_dispatch();
    if (h) {
      h.add(h.ids().farm_failovers);
      h.observe(h.ids().farm_recovery_ps,
                comm.ctx().now() - mctx->failover_detected);
    }
  }

  // ---- Checkpoint/heartbeat replication towards the standby ----------------
  std::uint64_t ck_seq = 0;
  noc::SimTime next_heartbeat = 0;
  const auto send_checkpoint = [&]() {
    if (!replicate) return;
    ++rep.checkpoints;
    FarmCheckpoint ck;
    ck.seq = ++ck_seq;
    ck.report = rep;
    ck.done = results;
    for (const Tracked& t : tracked)
      if (t.attempts > 0 && !t.done)
        ck.attempts.push_back(
            {t.job->id, static_cast<std::uint32_t>(t.attempts)});
    comm.send(standby, encode_checkpoint(encode_checkpoint_state(ck)));
    comm.mc_proto(mc::ProtoKind::Checkpoint, ck.seq);
    if (h) {
      h.add(h.ids().farm_checkpoints);
      h.instant(obs::Lane::Farm, h.ids().n_checkpoint, comm.ctx().now(),
                ck.seq);
    }
  };
  if (replicate) {
    // Seq-1 baseline: a master crash before the first result still leaves
    // the standby a valid (empty) snapshot to resume from.
    send_checkpoint();
    next_heartbeat = comm.ctx().now() + mctx->mft->heartbeat_period;
  }

  std::vector<int> watch;
  std::vector<JobResult> replies;  // the results one frame carries
  while (completed < total) {
    try_dispatch();
    watch.clear();
    std::size_t leased = 0;
    noc::SimTime next_deadline = 0;
    for (std::size_t si = 0; si < slaves.size(); ++si) {
      if (alive[si] && slave_job[si] != -1) {
        ++leased;
        watch.push_back(slaves[si]);
        const noc::SimTime d =
            tracked[static_cast<std::size_t>(slave_job[si])].lease_deadline;
        if (next_deadline == 0 || d < next_deadline) next_deadline = d;
      } else if (!alive[si]) {
        // Watch blacklisted slaves too: a late READY (restarted core or a
        // dropped handshake) re-enlists them, and a stale RESULT dedups.
        watch.push_back(slaves[si]);
      }
    }
    if (leased == 0) {
      if (lease == nullptr) throw SkelError("farm: jobs remain but nothing dispatchable");
      throw FarmFailedError("farm_ft: jobs remain but no live slave may run them");
    }

    int ue = -1;
    if (lease == nullptr) {
      ue = comm.wait_any(watch);
    } else {
      noc::SimTime wake = next_deadline;
      if (replicate && next_heartbeat < wake) wake = next_heartbeat;
      const noc::SimTime now = comm.ctx().now();
      ue = wake > now ? comm.wait_any_timeout(watch, wake - now) : -1;
    }
    if (ue < 0) {
      // Heartbeat first: the timer may have fired for it, not for a lease.
      if (replicate && comm.ctx().now() >= next_heartbeat) {
        comm.send(standby, encode_heartbeat(ck_seq));
        next_heartbeat = comm.ctx().now() + mctx->mft->heartbeat_period;
      }
      // Deadline passed with no frame: expire every overdue lease. A dead
      // slave is blacklisted; an alive one is merely slow (or its JOB was
      // dropped), so it stays eligible and its late result will dedup.
      const noc::SimTime t_now = comm.ctx().now();
      for (std::size_t si = 0; si < slaves.size(); ++si) {
        if (!alive[si] || slave_job[si] == -1) continue;
        const std::size_t ti = static_cast<std::size_t>(slave_job[si]);
        Tracked& t = tracked[ti];
        if (t.lease_deadline > t_now) continue;
        ++rep.lease_expiries;
        rep.wasted += t_now - t.dispatched_at;
        comm.chk_note(slaves[si], comm.ue(), "farm_ft.lease_expiry", t.job->id);
        comm.mc_proto(mc::ProtoKind::LeaseExpire, t.job->id,
                      static_cast<std::uint64_t>(slaves[si]));
        if (h) {
          h.add(h.ids().farm_lease_expiries);
          h.instant(obs::Lane::Farm, h.ids().n_lease_expiry, t_now, t.job->id);
        }
        if (!comm.ue_alive(slaves[si])) {
          blacklist(si);
          outstanding[si].clear();
        }
        slave_job[si] = -1;
        requeue(ti);
      }
      continue;
    }

    const std::size_t si = slave_index(ue);
    // Any frame addressed to this master proves the slave has re-homed
    // (even a corrupt one still came here): future leases run ungraced.
    rehomed[si] = 1;
    Message msg;
    try {
      msg = decode_message(comm.recv(ue));
    } catch (const bio::WireError&) {
      if (lease == nullptr) throw;
      ++rep.corrupt_frames;
      if (!outstanding[si].empty()) {
        const std::size_t ti = find_job(outstanding[si].front());
        outstanding[si].erase(outstanding[si].begin());
        if (!tracked[ti].done && slave_job[si] == static_cast<int>(ti)) {
          // The mangled frame was this job's RESULT: retry immediately
          // instead of waiting out the lease.
          slave_job[si] = -1;
          requeue(ti);
        }
      }
      continue;
    }
    replies.clear();
    if (lease == nullptr && outstanding[si].size() > 1) {
      if (msg.type != MsgType::BatchResult)
        throw SkelProtocolError("farm: expected BATCHRESULT from UE " +
                                std::to_string(ue));
      decode_batch_results(msg.payload, ue, replies);
      if (replies.size() != outstanding[si].size())
        throw SkelBatchError("farm: UE " + std::to_string(ue) + " returned " +
                             std::to_string(replies.size()) +
                             " results for a grant of " +
                             std::to_string(outstanding[si].size()));
    } else if (msg.type == MsgType::Ready && lease != nullptr) {
      // Liveness noise: a blacklisted slave came back (restarted core, or a
      // slave re-homing onto a promoted standby). Re-enlist it.
      rejoin(si);
      continue;
    } else if (msg.type != MsgType::Result) {
      throw SkelProtocolError(
          who + (lease != nullptr ? "unexpected message type from UE "
                                  : "expected RESULT from UE ") +
          std::to_string(ue));
    } else {
      replies.push_back(JobResult{msg.job_id, ue, std::move(msg.payload)});
    }
    for (JobResult& res : replies) {
      auto& q = outstanding[si];
      const auto qit = std::find(q.begin(), q.end(), res.id);
      if (qit != q.end()) q.erase(qit);
      const std::size_t ti = find_job(res.id);
      if (ti == tracked.size())
        throw SkelProtocolError(who + "result for unknown job " +
                                std::to_string(res.id));
      Tracked& t = tracked[ti];
      if (t.done) {
        if (lease == nullptr)
          throw SkelProtocolError("farm: second result for job " +
                                  std::to_string(res.id));
        ++rep.duplicate_results;  // a slow slave beaten by its replacement
        comm.mc_proto(mc::ProtoKind::ResultDup, res.id,
                      static_cast<std::uint64_t>(ue));
        continue;
      }
      t.done = true;
      comm.mc_proto(mc::ProtoKind::ResultAccept, res.id,
                    static_cast<std::uint64_t>(ue));
      ++completed;
      FlatGroup& g = groups[t.group];
      ++g.completed;
      if (g.seq) g.inflight = false;
      for (std::size_t sj = 0; sj < slaves.size(); ++sj)
        if (slave_job[sj] == static_cast<int>(ti)) slave_job[sj] = -1;
      if (h) {
        const noc::SimTime t_done = comm.ctx().now();
        h.add(h.ids().farm_results);
        h.async_end(obs::Lane::Farm, h.ids().n_job, t_done, res.id);
        h.observe(h.ids().farm_job_latency_ps, t_done - t.dispatched_at);
      }
      results.push_back(std::move(res));
      if (replicate &&
          (completed == total ||
           (mctx->mft->checkpoint_every != 0 &&
            completed % mctx->mft->checkpoint_every == 0)))
        send_checkpoint();
    }
    if (lease == nullptr) {  // the reply answered the whole grant
      outstanding[si].clear();
      slave_job[si] = -1;
    }
  }

  // The cadence check fires on the final accepted result (completed ==
  // total), so the standby always holds a complete snapshot by now; release
  // it with TERMINATE.
  if (replicate) comm.send(standby, encode_terminate());
  // TERMINATE goes to every slave, dead or not: a blacklisted-but-alive
  // slave (e.g. one whose READY was dropped) must not block forever, and a
  // dead core simply never receives it.
  if (opts.send_terminate) terminate(comm, slaves);
  if (h) {
    // All three stay zero on the plain FARM, where adding them is a no-op.
    h.add(h.ids().farm_retries, rep.retries);
    h.add(h.ids().farm_corrupt_frames, rep.corrupt_frames);
    h.add(h.ids().farm_duplicates, rep.duplicate_results);
    h.span(obs::Lane::Core, h.ids().n_farm, farm_start, comm.ctx().now());
  }
  if (report) *report = rep;
  return results;
}

}  // namespace

std::vector<JobResult> farm(rcce::Comm& comm, const Task& task, const FarmOptions& opts) {
  return run_farm(comm, task, opts, nullptr, nullptr, nullptr);
}

void farm_slave(rcce::Comm& comm, int master_ue, const Worker& worker,
                const FarmOptions& opts) {
  run_slave(comm, master_ue, worker, opts, nullptr);
}

std::vector<JobResult> farm_ft(rcce::Comm& comm, const Task& task,
                               const FarmOptions& opts,
                               const FaultTolerantFarmOptions& ft,
                               FarmReport* report) {
  return run_farm(comm, task, opts, &ft, report, nullptr);
}

std::vector<JobResult> farm_ft_master(rcce::Comm& comm, const Task& task,
                                      const FarmOptions& opts,
                                      const FaultTolerantFarmOptions& ft,
                                      const MasterFtOptions& mft,
                                      FarmReport* report) {
  if (ft.standby_ue < 0)
    throw SkelError("farm_ft_master: standby_ue must be set");
  if (ft.standby_ue == comm.ue())
    throw SkelError("farm_ft_master: master cannot be its own standby");
  MasterCtx mc;
  mc.mft = &mft;
  return run_farm(comm, task, opts, &ft, report, &mc);
}

std::optional<std::vector<JobResult>> farm_standby(
    rcce::Comm& comm, int master_ue, const Task& task, const FarmOptions& opts,
    const FaultTolerantFarmOptions& ft, const MasterFtOptions& mft,
    FarmReport* report) {
  // A zero window returns from every timed receive at once without
  // advancing simulated time: the standby would spin on its fiber forever.
  if (mft.heartbeat_timeout == 0)
    throw SkelError("farm_standby: heartbeat_timeout must be > 0");
  const obs::Handle h = comm.obs();
  FarmCheckpoint best;
  bool have = false;
  for (;;) {
    std::optional<bio::Bytes> frame =
        comm.recv_timeout(master_ue, mft.heartbeat_timeout);
    if (!frame) {
      if (comm.ue_alive(master_ue)) continue;  // slow master, not a dead one
      break;                                   // missed heartbeats + dead: failover
    }
    Message msg;
    try {
      msg = decode_message(std::move(*frame));
    } catch (const bio::WireError&) {
      continue;  // corrupt frame: the next checkpoint/heartbeat resyncs
    }
    if (msg.type == MsgType::Checkpoint) {
      try {
        FarmCheckpoint ck = decode_checkpoint_state(msg.payload);
        comm.mc_proto(mc::ProtoKind::CheckpointRecv, ck.seq);
        // StaleCheckpointTakeover is a seeded bug: only the very first
        // snapshot is retained, so a takeover resumes from a checkpoint
        // older than ones this standby demonstrably received.
        const bool keep =
            ft.mutant == ProtocolMutant::StaleCheckpointTakeover
                ? !have
                : (!have || ck.seq >= best.seq);
        if (keep) {
          best = std::move(ck);
          have = true;
        }
      } catch (const CheckpointError&) {
        // Keep the previous valid snapshot: resuming from it only costs
        // re-running whatever completed since it was taken.
      }
    } else if (msg.type == MsgType::Terminate) {
      return std::nullopt;  // master completed; the standby was never needed
    }
    // Heartbeats (and protocol noise) merely reset the silence window.
  }

  const noc::SimTime detected = comm.ctx().now();
  comm.chk_note(master_ue, comm.ue(), "farm_ft.failover",
                have ? best.seq : 0);
  comm.mc_proto(mc::ProtoKind::Takeover, have ? best.seq : 0);
  if (h)
    h.instant(obs::Lane::Farm, h.ids().n_failover, detected,
              static_cast<std::uint64_t>(master_ue));
  MasterCtx mc;
  mc.mft = &mft;
  mc.resume = have ? &best : nullptr;
  mc.failover_detected = detected;
  return run_farm(comm, task, opts, &ft, report, &mc);
}

void farm_slave_ft(rcce::Comm& comm, int master_ue, const Worker& worker,
                   const FarmOptions& opts, const FaultTolerantFarmOptions& ft) {
  run_slave(comm, master_ue, worker, opts, &ft);
}

}  // namespace rck::rckskel
