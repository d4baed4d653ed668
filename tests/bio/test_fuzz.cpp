// Robustness sweeps: every prefix truncation of valid payloads must raise a
// clean WireError (never crash, never return garbage), random skeleton
// frames, sealed or not, must decode exactly or throw, and the PDB parser
// must survive arbitrary line mutations.
#include <gtest/gtest.h>

#include <optional>

#include "rck/bio/fasta.hpp"
#include "rck/bio/pdb_io.hpp"
#include "rck/bio/serialize.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckskel/job.hpp"

namespace rck::bio {
namespace {

TEST(Fuzz, EveryProteinPayloadTruncationThrowsCleanly) {
  Rng rng(1);
  const Protein p = make_protein("fuzz", 25, rng);
  const Bytes full = serialize(p);
  const Protein ok = deserialize_protein(full);
  EXPECT_EQ(ok, p);
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)deserialize_protein(cut), WireError) << "prefix " << len;
  }
}

TEST(Fuzz, EveryPairJobTruncationThrowsCleanly) {
  Rng rng(2);
  const Protein a = make_protein("a", 12, rng);
  const Protein b = make_protein("b", 15, rng);
  const Bytes full = rckalign::encode_pair_job(1, 2, rckalign::Method::TmAlign, a, b);
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)rckalign::decode_pair_job(std::move(cut)), WireError)
        << "prefix " << len;
  }
}

TEST(Fuzz, EveryOutcomeTruncationThrowsCleanly) {
  rckalign::PairOutcome o;
  o.i = 3;
  o.j = 9;
  o.tm_norm_a = 0.7;
  const Bytes full = rckalign::encode_outcome(o);
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)rckalign::decode_outcome(std::move(cut)), WireError);
  }
}

TEST(Fuzz, SkeletonMessageRandomBytesNeverCrash) {
  // Random byte blobs fed to the protocol decoder: an unsealed blob carries
  // no valid checksum, so every one must be rejected cleanly — never UB.
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 64);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes blob(len(rng));
    for (std::byte& x : blob) x = static_cast<std::byte>(byte(rng));
    EXPECT_THROW((void)rckskel::decode_message(std::move(blob)), WireError)
        << "trial " << trial;
  }
}

// The frame a decoded fixed-layout message encodes to, or nullopt for the
// batch types, whose body decode_message does not parse.
std::optional<Bytes> reencode(const rckskel::Message& m) {
  using rckskel::MsgType;
  switch (m.type) {
    case MsgType::Ready: return rckskel::encode_ready();
    case MsgType::Terminate: return rckskel::encode_terminate();
    case MsgType::Heartbeat: return rckskel::encode_heartbeat(m.job_id);
    case MsgType::Job: return rckskel::encode_job(rckskel::Job{m.job_id, m.payload, 0});
    case MsgType::Result: return rckskel::encode_result(m.job_id, m.payload);
    case MsgType::Checkpoint: return rckskel::encode_checkpoint(m.payload);
    case MsgType::Batch:
    case MsgType::BatchResult: return std::nullopt;
  }
  ADD_FAILURE() << "decoded an unknown type " << static_cast<int>(m.type);
  return std::nullopt;
}

TEST(Fuzz, SealedSkeletonMessageRandomBodiesDecodeOrThrow) {
  // Random bodies sealed with a valid checksum reach the parser: each must
  // decode to one of the eight types or throw WireError, and a decoded
  // fixed-layout message must re-encode to the very frame it came from.
  // Short bodies with a type byte in 0..9 hit every type, well-formed and not.
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<int> type(0, 9);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 16);
  int decoded[9] = {};
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes body(len(rng));
    for (std::byte& x : body) x = static_cast<std::byte>(byte(rng));
    if (!body.empty()) body[0] = static_cast<std::byte>(type(rng));
    WireWriter w;
    w.u32(rckskel::wire_checksum(body));
    w.raw(body);
    const Bytes frame = w.take();
    try {
      const rckskel::Message msg = rckskel::decode_message(frame);
      const int t = static_cast<int>(msg.type);
      ASSERT_TRUE(t >= 1 && t <= 8) << "trial " << trial;
      ++decoded[t];
      if (const std::optional<Bytes> again = reencode(msg)) {
        EXPECT_EQ(*again, frame) << "trial " << trial << " type " << t;
      }
    } catch (const WireError&) {
      // fine: malformed body
    }
  }
  for (int t = 1; t <= 8; ++t) EXPECT_GT(decoded[t], 0) << "type " << t;
}

TEST(Fuzz, PdbParserSurvivesLineMutations) {
  Rng rng(4);
  const Protein p = make_protein("pdb", 20, rng);
  const std::string text = to_pdb(p);
  std::mt19937_64 mrng(5);
  std::uniform_int_distribution<std::size_t> pos(0, text.size() - 1);
  std::uniform_int_distribution<int> ch(32, 126);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = text;
    // Mutate up to 4 characters.
    for (int m = 0; m < 4; ++m)
      mutated[pos(mrng)] = static_cast<char>(ch(mrng));
    try {
      const Protein q = parse_pdb(mutated, "mut");
      EXPECT_LE(q.size(), p.size() + 1);  // can't invent many residues
    } catch (const PdbError&) {
      // fine: malformed input detected
    }
  }
}

TEST(Fuzz, PdbParserSurvivesTruncations) {
  Rng rng(6);
  const Protein p = make_protein("pdb", 15, rng);
  const std::string text = to_pdb(p);
  for (std::size_t len = 0; len <= text.size(); len += 7) {
    try {
      (void)parse_pdb(text.substr(0, len), "cut");
    } catch (const PdbError&) {
      // fine
    }
  }
}

TEST(Fuzz, FastaRandomTextNeverCrashes) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> ch(9, 126);
  std::uniform_int_distribution<std::size_t> len(0, 200);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text(len(rng), ' ');
    for (char& c : text) c = static_cast<char>(ch(rng));
    try {
      (void)parse_fasta(text);
    } catch (const std::runtime_error&) {
      // fine
    }
  }
}

}  // namespace
}  // namespace rck::bio
