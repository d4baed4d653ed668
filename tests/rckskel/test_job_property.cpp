// Property tests for the skeleton-protocol frame codec.
//
// Complements the example-based tests in test_job.cpp: random payloads must
// survive an encode/decode round trip byte-for-byte, and any single flipped
// bit, any two flipped bits and any substituted byte anywhere in a small
// frame — checksum field, type byte, or body — must be rejected by the
// CRC-32C checksum (bio::WireError), never decoded into a
// plausible-but-wrong message. This is the integrity property the
// fault-tolerant farm's corrupt-frame handling rests on (FaultPlan corrupts
// a frame by XOR-ing one byte with 0xA5).
#include "rck/rckskel/job.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "rck/bio/serialize.hpp"

namespace rck::rckskel {
namespace {

bio::Bytes random_payload(std::mt19937_64& rng, std::size_t size) {
  bio::Bytes p(size);
  for (auto& b : p) b = static_cast<std::byte>(rng() & 0xff);
  return p;
}

// Every frame the protocol can produce for one RNG draw.
std::vector<bio::Bytes> sample_frames(std::mt19937_64& rng) {
  const std::size_t size = static_cast<std::size_t>(rng() % 2048);
  Job job;
  job.id = rng();
  job.cost_hint = rng();
  job.payload = random_payload(rng, size);
  return {encode_ready(), encode_terminate(), encode_job(job),
          encode_result(rng(), random_payload(rng, size / 2))};
}

TEST(JobCodecProperty, RandomPayloadsRoundTrip) {
  std::mt19937_64 rng(20260805);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t size = static_cast<std::size_t>(rng() % 4096);
    Job job;
    job.id = rng();
    job.cost_hint = rng();
    job.payload = random_payload(rng, size);
    const Message m = decode_message(encode_job(job));
    EXPECT_EQ(m.type, MsgType::Job);
    EXPECT_EQ(m.job_id, job.id);
    EXPECT_EQ(m.payload, job.payload);

    const std::uint64_t rid = rng();
    const bio::Bytes rp = random_payload(rng, size / 3);
    const Message r = decode_message(encode_result(rid, rp));
    EXPECT_EQ(r.type, MsgType::Result);
    EXPECT_EQ(r.job_id, rid);
    EXPECT_EQ(r.payload, rp);
  }
}

// Small frames of every fixed-layout type, for the exhaustive searches.
std::vector<bio::Bytes> small_frames() {
  std::mt19937_64 rng(1);
  Job job;
  job.id = 0xDEADBEEFCAFEull;
  job.payload = random_payload(rng, 24);
  return {encode_ready(), encode_terminate(), encode_heartbeat(0x5EEDull),
          encode_job(job), encode_result(42, job.payload)};
}

void flip_bit(bio::Bytes& frame, std::size_t bit) {
  frame[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

TEST(JobCodecProperty, EverySingleBitFlipIsRejectedInSmallFrames) {
  // Small frames: exhaustively flip every bit of every frame type.
  for (const bio::Bytes& frame : small_frames()) {
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      bio::Bytes corrupt = frame;
      flip_bit(corrupt, bit);
      EXPECT_THROW(decode_message(std::move(corrupt)), bio::WireError)
          << "frame size " << frame.size() << " bit " << bit;
    }
  }
}

TEST(JobCodecProperty, EveryTwoBitErrorIsRejectedInSmallFrames) {
  // CRC-32C's Hamming distance is at least 4 for frames this short, wherever
  // the checksum sits. Count misses instead of asserting per pair to keep
  // the output bounded.
  for (const bio::Bytes& frame : small_frames()) {
    const std::size_t bits = frame.size() * 8;
    std::size_t accepted = 0;
    for (std::size_t b1 = 0; b1 < bits; ++b1)
      for (std::size_t b2 = b1 + 1; b2 < bits; ++b2) {
        bio::Bytes corrupt = frame;
        flip_bit(corrupt, b1);
        flip_bit(corrupt, b2);
        try {
          (void)decode_message(std::move(corrupt));
          ++accepted;
        } catch (const bio::WireError&) {
        }
      }
    EXPECT_EQ(accepted, 0u) << "frame size " << frame.size();
  }
}

TEST(JobCodecProperty, EverySingleByteSubstitutionIsRejectedInSmallFrames) {
  // A substituted byte either sits in the checksum field, where any change
  // mismatches, or is a burst of at most 8 bits in the covered bytes, which
  // a CRC-32 always detects.
  for (const bio::Bytes& frame : small_frames()) {
    std::size_t accepted = 0;
    for (std::size_t pos = 0; pos < frame.size(); ++pos)
      for (unsigned delta = 1; delta < 256; ++delta) {
        bio::Bytes corrupt = frame;
        corrupt[pos] ^= static_cast<std::byte>(delta);
        try {
          (void)decode_message(std::move(corrupt));
          ++accepted;
        } catch (const bio::WireError&) {
        }
      }
    EXPECT_EQ(accepted, 0u) << "frame size " << frame.size();
  }
}

TEST(JobCodecProperty, SampledBitFlipsRejectedInLargeRandomFrames) {
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    for (const bio::Bytes& frame : sample_frames(rng)) {
      for (int k = 0; k < 32; ++k) {
        const std::size_t bit = rng() % (frame.size() * 8);
        bio::Bytes corrupt = frame;
        corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        EXPECT_THROW(decode_message(std::move(corrupt)), bio::WireError)
            << "iter " << iter << " frame size " << frame.size() << " bit "
            << bit;
      }
    }
  }
}

TEST(JobCodecProperty, TruncationsRejected) {
  std::mt19937_64 rng(5);
  Job job;
  job.id = 7;
  job.payload = random_payload(rng, 64);
  const bio::Bytes frame = encode_job(job);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    bio::Bytes cut(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_message(std::move(cut)), bio::WireError) << len;
  }
}

}  // namespace
}  // namespace rck::rckskel
