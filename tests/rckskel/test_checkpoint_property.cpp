// Property tests for the master-failover checkpoint codec.
//
// Mirrors test_job_property.cpp for the snapshot blob: a randomized farm
// state (report, completed results, attempt counts) must survive an
// encode/decode round trip field-for-field, and any single flipped bit —
// checksum, header, or body — must be rejected with CheckpointError, never
// decoded into a plausible-but-wrong recovery state. This is the integrity
// property standby failover rests on: resuming from a corrupted snapshot
// would silently re-run or lose jobs.
#include "rck/rckskel/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace rck::rckskel {
namespace {

bio::Bytes random_payload(std::mt19937_64& rng, std::size_t size) {
  bio::Bytes p(size);
  for (auto& b : p) b = static_cast<std::byte>(rng() & 0xff);
  return p;
}

FarmCheckpoint random_checkpoint(std::mt19937_64& rng) {
  FarmCheckpoint ck;
  ck.seq = rng();
  ck.report.jobs = rng() % 1000;
  ck.report.attempts = rng() % 1000;
  ck.report.retries = rng() % 100;
  ck.report.reassignments = rng() % 100;
  ck.report.lease_expiries = rng() % 100;
  ck.report.corrupt_frames = rng() % 100;
  ck.report.duplicate_results = rng() % 100;
  ck.report.checkpoints = rng() % 100;
  ck.report.failovers = rng() % 4;
  ck.report.resumed_jobs = rng() % 1000;
  const std::size_t ndead = rng() % 4;
  for (std::size_t i = 0; i < ndead; ++i)
    ck.report.dead_ues.push_back(static_cast<int>(rng() % 48));
  ck.report.wasted = static_cast<noc::SimTime>(rng() % (1u << 30));

  const std::size_t ndone = rng() % 16;
  for (std::size_t i = 0; i < ndone; ++i) {
    JobResult r;
    r.id = rng();
    r.worker = static_cast<int>(rng() % 48);
    r.payload = random_payload(rng, rng() % 512);
    ck.done.push_back(std::move(r));
  }
  const std::size_t natt = rng() % 8;
  for (std::size_t i = 0; i < natt; ++i) {
    ck.attempts.push_back(
        {rng(), static_cast<std::uint32_t>(rng() % 10 + 1)});
  }
  return ck;
}

TEST(CheckpointCodecProperty, RandomStatesRoundTrip) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 50; ++iter) {
    const FarmCheckpoint ck = random_checkpoint(rng);
    const FarmCheckpoint back =
        decode_checkpoint_state(encode_checkpoint_state(ck));
    EXPECT_EQ(back, ck) << "iter " << iter;
  }
}

TEST(CheckpointCodecProperty, EmptyStateRoundTrips) {
  // The startup baseline the master replicates before any result arrives.
  const FarmCheckpoint back =
      decode_checkpoint_state(encode_checkpoint_state(FarmCheckpoint{}));
  EXPECT_EQ(back, FarmCheckpoint{});
}

TEST(CheckpointCodecProperty, EverySingleBitFlipRejectedInSmallSnapshot) {
  std::mt19937_64 rng(2);
  FarmCheckpoint ck;
  ck.seq = 7;
  ck.report.jobs = 3;
  JobResult r;
  r.id = 1;
  r.worker = 2;
  r.payload = random_payload(rng, 16);
  ck.done.push_back(std::move(r));
  ck.attempts.push_back({2, 1});
  const bio::Bytes blob = encode_checkpoint_state(ck);
  for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
    bio::Bytes corrupt = blob;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_THROW(decode_checkpoint_state(corrupt), CheckpointError)
        << "bit " << bit;
  }
}

TEST(CheckpointCodecProperty, SampledBitFlipsRejectedInLargeSnapshots) {
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    const bio::Bytes blob = encode_checkpoint_state(random_checkpoint(rng));
    for (int k = 0; k < 32; ++k) {
      const std::size_t bit = rng() % (blob.size() * 8);
      bio::Bytes corrupt = blob;
      corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      EXPECT_THROW(decode_checkpoint_state(corrupt), CheckpointError)
          << "iter " << iter << " bit " << bit;
    }
  }
}

TEST(CheckpointCodecProperty, TruncationsRejected) {
  std::mt19937_64 rng(5);
  const bio::Bytes blob = encode_checkpoint_state(random_checkpoint(rng));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const bio::Bytes cut(blob.begin(),
                         blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_checkpoint_state(cut), CheckpointError) << len;
  }
}

/// Set the u32 count at body offset `at` to 0xFFFFFFFF, re-seal the
/// checksum, and return the error code the decoder raises.
std::string inflated_count_code(const FarmCheckpoint& ck, std::size_t at) {
  bio::Bytes blob = encode_checkpoint_state(ck);
  const std::span<std::byte> body(blob.data() + 4, blob.size() - 4);
  for (std::size_t k = 0; k < 4; ++k) body[at + k] = std::byte{0xFF};
  const std::uint32_t sum = wire_checksum(body);
  for (std::size_t k = 0; k < 4; ++k)
    blob[k] = static_cast<std::byte>((sum >> (8 * k)) & 0xFF);
  try {
    (void)decode_checkpoint_state(blob);
  } catch (const rck::Error& e) {
    return e.code();
  }
  return "decoded";
}

TEST(CheckpointCodecProperty, InflatedCountsRaiseCheckpointCode) {
  FarmCheckpoint ck;
  ck.report.dead_ues = {3, 5};
  ck.done.push_back(JobResult{7, 2, bio::Bytes(9)});
  ck.attempts.push_back({7, 2});
  // Body layout: seq (u64), ten u64 report counters, ndead + i32s, wasted
  // (u64), ndone + (u64 id, i32 worker, u32 length, payload)s, natt.
  const std::size_t ndead_at = 8 + 10 * 8;
  const std::size_t ndone_at = ndead_at + 4 + 2 * 4 + 8;
  const std::size_t natt_at = ndone_at + 4 + 8 + 4 + 4 + 9;
  EXPECT_EQ(inflated_count_code(ck, ndead_at), "rck.skel.checkpoint");
  EXPECT_EQ(inflated_count_code(ck, ndone_at), "rck.skel.checkpoint");
  EXPECT_EQ(inflated_count_code(ck, natt_at), "rck.skel.checkpoint");
}

TEST(CheckpointCodecProperty, TrailingGarbageRejected) {
  bio::Bytes blob = encode_checkpoint_state(FarmCheckpoint{});
  blob.push_back(std::byte{0});
  EXPECT_THROW(decode_checkpoint_state(blob), CheckpointError);
}

}  // namespace
}  // namespace rck::rckskel
