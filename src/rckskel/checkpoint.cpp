#include "rck/rckskel/checkpoint.hpp"

namespace rck::rckskel {

namespace {

void encode_report(bio::WireWriter& w, const FarmReport& rep) {
  w.u64(rep.jobs);
  w.u64(rep.attempts);
  w.u64(rep.retries);
  w.u64(rep.reassignments);
  w.u64(rep.lease_expiries);
  w.u64(rep.corrupt_frames);
  w.u64(rep.duplicate_results);
  w.u64(rep.checkpoints);
  w.u64(rep.failovers);
  w.u64(rep.resumed_jobs);
  w.u32(static_cast<std::uint32_t>(rep.dead_ues.size()));
  for (int ue : rep.dead_ues) w.i32(ue);
  w.u64(rep.wasted);
}

FarmReport decode_report(bio::WireReader& r) {
  FarmReport rep;
  rep.jobs = r.u64();
  rep.attempts = r.u64();
  rep.retries = r.u64();
  rep.reassignments = r.u64();
  rep.lease_expiries = r.u64();
  rep.corrupt_frames = r.u64();
  rep.duplicate_results = r.u64();
  rep.checkpoints = r.u64();
  rep.failovers = r.u64();
  rep.resumed_jobs = r.u64();
  const std::uint32_t ndead = r.count(4);  // i32 per dead UE
  rep.dead_ues.reserve(ndead);
  for (std::uint32_t i = 0; i < ndead; ++i) rep.dead_ues.push_back(r.i32());
  rep.wasted = r.u64();
  return rep;
}

}  // namespace

bio::Bytes encode_checkpoint_state(const FarmCheckpoint& ck) {
  bio::WireWriter w;
  w.u64(ck.seq);
  encode_report(w, ck.report);
  w.u32(static_cast<std::uint32_t>(ck.done.size()));
  for (const JobResult& res : ck.done) {
    w.u64(res.id);
    w.i32(res.worker);
    w.u32(static_cast<std::uint32_t>(res.payload.size()));
    w.raw(res.payload);
  }
  w.u32(static_cast<std::uint32_t>(ck.attempts.size()));
  for (const FarmCheckpoint::JobAttempts& a : ck.attempts) {
    w.u64(a.id);
    w.u32(a.attempts);
  }
  const bio::Bytes body = w.take();
  bio::WireWriter sealed;
  sealed.u32(wire_checksum(body));
  sealed.raw(body);
  return sealed.take();
}

FarmCheckpoint decode_checkpoint_state(std::span<const std::byte> blob) {
  if (blob.size() < 4)
    throw CheckpointError("checkpoint: truncated snapshot");
  const std::span<const std::byte> body = blob.subspan(4);
  bio::WireReader hdr(blob.subspan(0, 4));
  if (hdr.u32() != wire_checksum(body))
    throw CheckpointError("checkpoint: checksum mismatch");
  try {
    bio::WireReader r(body);  // view into `blob`, valid for this scope
    FarmCheckpoint ck;
    ck.seq = r.u64();
    ck.report = decode_report(r);
    const std::uint32_t ndone = r.count(8 + 4 + 4);  // id, worker, length
    ck.done.reserve(ndone);
    for (std::uint32_t i = 0; i < ndone; ++i) {
      JobResult res;
      res.id = r.u64();
      res.worker = r.i32();
      const std::uint32_t len = r.u32();
      res.payload = r.raw(len);
      ck.done.push_back(std::move(res));
    }
    const std::uint32_t natt = r.count(8 + 4);  // id, attempts
    ck.attempts.reserve(natt);
    for (std::uint32_t i = 0; i < natt; ++i) {
      FarmCheckpoint::JobAttempts a;
      a.id = r.u64();
      a.attempts = r.u32();
      ck.attempts.push_back(a);
    }
    if (!r.done())
      throw CheckpointError("checkpoint: trailing bytes after snapshot");
    return ck;
  } catch (const bio::WireError& e) {
    // A snapshot whose checksum verified should always parse; reaching here
    // means an encoder/decoder version skew, reported in our own taxonomy.
    throw CheckpointError(std::string("checkpoint: malformed body: ") +
                          e.what());
  }
}

}  // namespace rck::rckskel
