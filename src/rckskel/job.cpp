#include "rck/rckskel/job.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rck::rckskel {

namespace {

/// CRC-32C (Castagnoli), reflected: the polynomial 0x1EDC6F41 bit-reversed.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0][b] is the CRC register after shifting in byte
/// b, and t[k][b] the register after b followed by k zero bytes, so eight
/// lookups advance the register over eight bytes at once.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (kCrc32cPoly & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  return t;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

/// Little-endian u32 at `p`, whatever the host byte order.
std::uint32_t load_le32(const std::byte* p) noexcept {
  return std::to_integer<std::uint32_t>(p[0]) | std::to_integer<std::uint32_t>(p[1]) << 8 |
         std::to_integer<std::uint32_t>(p[2]) << 16 |
         std::to_integer<std::uint32_t>(p[3]) << 24;
}

/// Advance the CRC-32C register `crc` over `n` bytes, eight at a time.
std::uint32_t crc32c_update_portable(std::uint32_t crc, const std::byte* p,
                                     std::size_t n) noexcept {
  const Crc32cTables& t = kCrc32cTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n)
    crc = (crc >> 8) ^ t[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xFFu];
  return crc;
}

#if defined(__x86_64__)
/// The same register update with the SSE4.2 crc32 instruction, which
/// computes CRC-32C. Only called when the CPU reports SSE4.2.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);  // x86-64 is little-endian
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, std::to_integer<unsigned char>(*p));
  return c32;
}
#endif

using Crc32cUpdate = std::uint32_t (*)(std::uint32_t, const std::byte*,
                                       std::size_t) noexcept;

/// The register update for this CPU, chosen once per process.
Crc32cUpdate crc32c_update() noexcept {
  static const Crc32cUpdate update = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2") != 0) return &crc32c_update_sse42;
#endif
    return &crc32c_update_portable;
  }();
  return update;
}

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
  return ~crc32c_update()(0xFFFFFFFFu, data.data(), data.size());
}

std::uint32_t wire_checksum_portable(std::span<const std::byte> data) noexcept {
  return ~crc32c_update_portable(0xFFFFFFFFu, data.data(), data.size());
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
  if (!r.done()) throw bio::WireError("decode_message: trailing bytes");
  return m;
}

}  // namespace rck::rckskel
