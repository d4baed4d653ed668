#include "rck/rckskel/job.hpp"

namespace rck::rckskel {

namespace {

/// Prefix the body with its checksum to form a complete wire frame.
bio::Bytes seal(const bio::Bytes& body) {
  bio::WireWriter w;
  w.u32(wire_checksum(body));
  w.raw(body);
  return w.take();
}

/// Smallest encoding of one batch grant/reply entry: u64 id + u32 length.
constexpr std::size_t kMinBatchEntryBytes = 8 + 4;

}  // namespace

std::uint32_t wire_checksum(std::span<const std::byte> data) noexcept {
  // FNV-1a: cheap, deterministic, and sensitive to single-bit flips — enough
  // to catch the simulator's injected corruption (this is an error-detection
  // code, not a cryptographic one).
  std::uint32_t h = 2166136261u;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint32_t>(b);
    h *= 16777619u;
  }
  return h;
}

bio::Bytes encode_ready() {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Ready));
  return seal(w.take());
}

bio::Bytes encode_job(const Job& job) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Job));
  w.u64(job.id);
  w.raw(job.payload);
  return seal(w.take());
}

bio::Bytes encode_result(std::uint64_t job_id, const bio::Bytes& payload) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Result));
  w.u64(job_id);
  w.raw(payload);
  return seal(w.take());
}

bio::Bytes encode_terminate() {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Terminate));
  return seal(w.take());
}

bio::Bytes encode_checkpoint(const bio::Bytes& snapshot) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Checkpoint));
  w.raw(snapshot);
  return seal(w.take());
}

bio::Bytes encode_heartbeat(std::uint64_t seq) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Heartbeat));
  w.u64(seq);
  return seal(w.take());
}

bio::Bytes encode_batch(std::span<const Job* const> jobs) {
  if (jobs.empty())
    throw bio::WireError("encode_batch: empty grant");
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Batch));
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const Job* job : jobs) {
    w.u64(job->id);
    w.u32(static_cast<std::uint32_t>(job->payload.size()));
    w.raw(job->payload);
  }
  return seal(w.take());
}

bio::Bytes encode_batch_result(std::span<const Job> jobs,
                               std::span<const bio::Bytes> payloads) {
  if (jobs.empty() || jobs.size() != payloads.size())
    throw bio::WireError("encode_batch_result: grant/result size mismatch");
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::BatchResult));
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    w.u64(jobs[k].id);
    w.u32(static_cast<std::uint32_t>(payloads[k].size()));
    w.raw(payloads[k]);
  }
  return seal(w.take());
}

void decode_batch_jobs(const bio::Bytes& payload, std::vector<Job>& out) {
  out.clear();
  bio::WireReader r(std::span<const std::byte>(payload.data(), payload.size()));
  const std::uint32_t count = r.count(kMinBatchEntryBytes);
  if (count == 0) throw bio::WireError("decode_batch_jobs: empty grant");
  out.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    out[k].id = r.u64();
    const std::uint32_t len = r.u32();
    out[k].payload = r.raw(len);
    out[k].cost_hint = 0;
  }
  if (!r.done())
    throw bio::WireError("decode_batch_jobs: trailing bytes");
}

void decode_batch_results(const bio::Bytes& payload, int worker,
                          std::vector<JobResult>& out) {
  out.clear();
  bio::WireReader r(std::span<const std::byte>(payload.data(), payload.size()));
  const std::uint32_t count = r.count(kMinBatchEntryBytes);
  if (count == 0) throw bio::WireError("decode_batch_results: empty reply");
  out.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    out[k].id = r.u64();
    out[k].worker = worker;
    const std::uint32_t len = r.u32();
    out[k].payload = r.raw(len);
  }
  if (!r.done())
    throw bio::WireError("decode_batch_results: trailing bytes");
}

Message decode_message(bio::Bytes raw) {
  if (raw.size() < 5)
    throw bio::WireError("decode_message: truncated frame");
  const std::span<const std::byte> body(raw.data() + 4, raw.size() - 4);
  bio::WireReader hdr(std::span<const std::byte>(raw.data(), 4));
  if (hdr.u32() != wire_checksum(body))
    throw bio::WireError("decode_message: checksum mismatch");
  bio::WireReader r(body);  // view into `raw`, which outlives the reads
  Message m;
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 8) throw bio::WireError("decode_message: unknown type");
  m.type = static_cast<MsgType>(t);
  if (m.type == MsgType::Job || m.type == MsgType::Result) {
    m.job_id = r.u64();
    m.payload = r.rest();
  } else if (m.type == MsgType::Checkpoint || m.type == MsgType::Batch ||
             m.type == MsgType::BatchResult) {
    m.payload = r.rest();
  } else if (m.type == MsgType::Heartbeat) {
    m.job_id = r.u64();
  }
  return m;
}

}  // namespace rck::rckskel
