#include "rck/rckskel/job.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string_view>

namespace rck::rckskel {
namespace {

bio::Bytes some_payload() {
  bio::WireWriter w;
  w.str("job payload");
  w.u32(99);
  return w.take();
}

TEST(JobCodec, ReadyRoundTrip) {
  const Message m = decode_message(encode_ready());
  EXPECT_EQ(m.type, MsgType::Ready);
  EXPECT_TRUE(m.payload.empty());
}

TEST(JobCodec, TerminateRoundTrip) {
  const Message m = decode_message(encode_terminate());
  EXPECT_EQ(m.type, MsgType::Terminate);
}

TEST(JobCodec, JobRoundTrip) {
  Job job;
  job.id = 1234567890123ull;
  job.payload = some_payload();
  const Message m = decode_message(encode_job(job));
  EXPECT_EQ(m.type, MsgType::Job);
  EXPECT_EQ(m.job_id, job.id);
  EXPECT_EQ(m.payload, job.payload);
}

TEST(JobCodec, ResultRoundTrip) {
  const bio::Bytes payload = some_payload();
  const Message m = decode_message(encode_result(77, payload));
  EXPECT_EQ(m.type, MsgType::Result);
  EXPECT_EQ(m.job_id, 77u);
  EXPECT_EQ(m.payload, payload);
}

TEST(JobCodec, EmptyPayloadJob) {
  Job job;
  job.id = 5;
  const Message m = decode_message(encode_job(job));
  EXPECT_EQ(m.job_id, 5u);
  EXPECT_TRUE(m.payload.empty());
}

// Hand-craft a frame with a *valid* checksum around the given body, so the
// tests below exercise the post-checksum validation too.
bio::Bytes sealed(const bio::Bytes& body) {
  bio::WireWriter w;
  w.u32(wire_checksum(body));
  w.raw(body);
  return w.take();
}

TEST(JobCodec, UnknownTypeThrows) {
  bio::WireWriter w;
  w.u8(9);
  EXPECT_THROW(decode_message(sealed(w.take())), bio::WireError);
}

TEST(JobCodec, TruncatedJobThrows) {
  bio::WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::Job));
  w.u32(1);  // not a full u64 id
  EXPECT_THROW(decode_message(sealed(w.take())), bio::WireError);
}

TEST(JobCodec, EmptyBufferThrows) {
  EXPECT_THROW(decode_message(bio::Bytes{}), bio::WireError);
}

TEST(JobCodec, FrameShorterThanHeaderThrows) {
  // Fewer bytes than checksum + type can never be a frame.
  EXPECT_THROW(decode_message(bio::Bytes(3, std::byte{0})), bio::WireError);
}

TEST(JobCodec, SingleFlippedBitFailsChecksum) {
  Job job;
  job.id = 42;
  job.payload = some_payload();
  bio::Bytes frame = encode_job(job);
  for (std::size_t pos : {std::size_t{4}, frame.size() / 2, frame.size() - 1}) {
    bio::Bytes mangled = frame;
    mangled[pos] ^= std::byte{0x01};
    EXPECT_THROW(decode_message(std::move(mangled)), bio::WireError) << pos;
  }
}

TEST(JobCodec, CorruptedChecksumFieldItselfThrows) {
  bio::Bytes frame = encode_ready();
  frame[0] ^= std::byte{0xFF};
  EXPECT_THROW(decode_message(std::move(frame)), bio::WireError);
}

TEST(JobCodec, TruncatedTailFailsChecksum) {
  Job job;
  job.id = 42;
  job.payload = some_payload();
  bio::Bytes frame = encode_job(job);
  frame.pop_back();
  EXPECT_THROW(decode_message(std::move(frame)), bio::WireError);
}

TEST(JobCodec, ChecksumIsDeterministicAndPositionSensitive) {
  const bio::Bytes a = some_payload();
  EXPECT_EQ(wire_checksum(a), wire_checksum(a));
  const bio::Bytes b(a.rbegin(), a.rend());  // same bytes, reversed order
  EXPECT_NE(wire_checksum(a), wire_checksum(b));  // a CRC is order-sensitive
}

// The frame checksum is CRC-32C; these are the RFC 3720 (iSCSI) section B.4
// test vectors, run through the dispatched and the portable path.
TEST(JobCodec, ChecksumMatchesRfc3720Vectors) {
  bio::Bytes ascending(32);
  bio::Bytes descending(32);
  for (std::size_t k = 0; k < 32; ++k) {
    ascending[k] = static_cast<std::byte>(k);
    descending[k] = static_cast<std::byte>(31 - k);
  }
  bio::Bytes digits;
  for (const char c : std::string_view("123456789")) digits.push_back(static_cast<std::byte>(c));
  const struct {
    const char* name;
    bio::Bytes data;
    std::uint32_t crc;
  } vectors[] = {
      {"32 zero bytes", bio::Bytes(32, std::byte{0x00}), 0x8A9136AAu},
      {"32 bytes of 0xFF", bio::Bytes(32, std::byte{0xFF}), 0x62A8AB43u},
      {"0x00..0x1F", ascending, 0x46DD794Eu},
      {"0x1F..0x00", descending, 0x113FDB5Cu},
      {"123456789", digits, 0xE3069283u},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(wire_checksum(v.data), v.crc) << v.name;
    EXPECT_EQ(wire_checksum_portable(v.data), v.crc) << v.name;
  }
  EXPECT_EQ(wire_checksum({}), 0u);
  EXPECT_EQ(wire_checksum_portable({}), 0u);
}

// wire_checksum runs the SSE4.2 crc32 instruction where the CPU has it; the
// two paths must agree on every length and alignment the word loop and the
// byte tail split differently.
TEST(JobCodec, DispatchedAndPortableChecksumsAgree) {
  std::mt19937_64 rng(32);
  bio::Bytes buf(64 + 8);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::span<const std::byte> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto view = all.subspan(offset, len);
      EXPECT_EQ(wire_checksum(view), wire_checksum_portable(view))
          << "offset " << offset << " length " << len;
    }
  bio::Bytes frame(11 * 1024 + 3);
  for (std::byte& b : frame) b = static_cast<std::byte>(rng() & 0xFF);
  EXPECT_EQ(wire_checksum(frame), wire_checksum_portable(frame));
}

// The exact bytes of one JOB frame. Any change to the frame layout or the
// checksum fails here first; such a change must be called out as a wire
// format change.
TEST(JobCodec, JobFrameBytesArePinned) {
  Job job;
  job.id = 0x0123456789ABCDEFull;
  job.payload = {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE}, std::byte{0xEF}};
  job.cost_hint = 99;  // master-side state, never on the wire
  const std::uint8_t expected[] = {
      0x9E, 0x51, 0x4F, 0x59,                          // CRC-32C, little-endian
      0x02,                                            // MsgType::Job
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // id, little-endian
      0xDE, 0xAD, 0xBE, 0xEF};                         // payload
  const bio::Bytes frame = encode_job(job);
  ASSERT_EQ(frame.size(), sizeof expected);
  for (std::size_t k = 0; k < frame.size(); ++k)
    EXPECT_EQ(static_cast<std::uint8_t>(frame[k]), expected[k]) << "byte " << k;
}

TEST(JobCodec, ControlFramesRejectTrailingBytes) {
  for (const bio::Bytes& frame : {encode_ready(), encode_terminate(), encode_heartbeat(7)}) {
    ASSERT_NO_THROW((void)decode_message(frame));
    bio::Bytes body(frame.begin() + 4, frame.end());
    body.push_back(std::byte{0});
    EXPECT_THROW((void)decode_message(sealed(body)), bio::WireError)
        << "type " << static_cast<int>(body[0]);
  }
}

}  // namespace
}  // namespace rck::rckskel
