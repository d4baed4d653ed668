#include "rck/rckalign/codec.hpp"

#include <gtest/gtest.h>

#include "rck/bio/synthetic.hpp"
#include "rck/rckalign/error.hpp"

namespace rck::rckalign {
namespace {

TEST(PairJobCodec, RoundTrip) {
  bio::Rng rng(1);
  const bio::Protein a = bio::make_protein("a", 40, rng);
  const bio::Protein b = bio::make_protein("b", 55, rng);
  const bio::Bytes raw = encode_pair_job(3, 17, Method::TmAlign, a, b);
  const PairJobData d = decode_pair_job(raw);
  EXPECT_EQ(d.i, 3u);
  EXPECT_EQ(d.j, 17u);
  EXPECT_EQ(d.method, Method::TmAlign);
  EXPECT_EQ(d.a, a);
  EXPECT_EQ(d.b, b);
}

TEST(PairJobCodec, MethodTagPreserved) {
  bio::Rng rng(2);
  const bio::Protein a = bio::make_protein("a", 20, rng);
  const bio::Bytes raw = encode_pair_job(0, 1, Method::GaplessRmsd, a, a);
  EXPECT_EQ(decode_pair_job(raw).method, Method::GaplessRmsd);
}

TEST(PairJobCodec, TrailingBytesRejected) {
  bio::Rng rng(3);
  const bio::Protein a = bio::make_protein("a", 20, rng);
  bio::Bytes raw = encode_pair_job(0, 1, Method::TmAlign, a, a);
  raw.push_back(std::byte{0});
  EXPECT_THROW(decode_pair_job(raw), bio::WireError);
}

TEST(PairJobCodec, TruncationRejected) {
  bio::Rng rng(4);
  const bio::Protein a = bio::make_protein("a", 20, rng);
  bio::Bytes raw = encode_pair_job(0, 1, Method::TmAlign, a, a);
  raw.resize(raw.size() / 2);
  EXPECT_THROW(decode_pair_job(raw), bio::WireError);
}

TEST(OutcomeCodec, RoundTrip) {
  PairOutcome o;
  o.i = 7;
  o.j = 22;
  o.method = Method::TmAlign;
  o.tm_norm_a = 0.8123;
  o.tm_norm_b = 0.7567;
  o.rmsd = 2.31;
  o.seq_identity = 0.42;
  o.aligned_length = 133;
  o.work_cycles = 987654321012ull;
  const PairOutcome d = decode_outcome(encode_outcome(o));
  EXPECT_EQ(d.i, o.i);
  EXPECT_EQ(d.j, o.j);
  EXPECT_EQ(d.method, o.method);
  EXPECT_DOUBLE_EQ(d.tm_norm_a, o.tm_norm_a);
  EXPECT_DOUBLE_EQ(d.tm_norm_b, o.tm_norm_b);
  EXPECT_DOUBLE_EQ(d.rmsd, o.rmsd);
  EXPECT_DOUBLE_EQ(d.seq_identity, o.seq_identity);
  EXPECT_EQ(d.aligned_length, o.aligned_length);
  EXPECT_EQ(d.work_cycles, o.work_cycles);
}

TEST(OutcomeCodec, DefaultConstructedRoundTrip) {
  const PairOutcome d = decode_outcome(encode_outcome(PairOutcome{}));
  EXPECT_EQ(d.i, 0u);
  EXPECT_DOUBLE_EQ(d.tm_norm_a, 0.0);
}

TEST(PairJobCodec, PayloadSizeTracksChainLengths) {
  bio::Rng rng(5);
  const bio::Protein small = bio::make_protein("s", 30, rng);
  const bio::Protein big = bio::make_protein("b", 300, rng);
  EXPECT_GT(encode_pair_job(0, 1, Method::TmAlign, big, big).size(),
            encode_pair_job(0, 1, Method::TmAlign, small, small).size());
}

TEST(PairJobCodec, TableEncodingMatchesPerPairEncoding) {
  bio::Rng rng(6);
  std::vector<bio::Protein> chains;
  for (int k = 0; k < 4; ++k)
    chains.push_back(bio::make_protein("c" + std::to_string(k), 20 + 7 * k, rng));
  const std::vector<const bio::Protein*> table{&chains[0], &chains[1], &chains[2],
                                               &chains[3]};
  // Repeated structures, both orders, a self-pair and two methods.
  const std::vector<PairSpec> specs{{0, 1, Method::TmAlign},     {1, 0, Method::TmAlign},
                                    {2, 2, Method::TmAlign},     {0, 1, Method::GaplessRmsd},
                                    {3, 0, Method::GaplessRmsd}, {1, 3, Method::TmAlign},
                                    {0, 1, Method::TmAlign}};
  const std::vector<bio::Bytes> payloads = encode_pair_jobs(table, specs);
  ASSERT_EQ(payloads.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    EXPECT_EQ(payloads[k], encode_pair_job(s.a, s.b, s.method, chains[s.a], chains[s.b]))
        << "spec " << k;
  }
  EXPECT_TRUE(encode_pair_jobs(table, {}).empty());
}

TEST(PairJobCodec, TableEncodingRejectsBadReferences) {
  bio::Rng rng(7);
  const bio::Protein a = bio::make_protein("a", 20, rng);
  const std::vector<const bio::Protein*> table{&a, nullptr};
  const std::vector<PairSpec> outside{{0, 2, Method::TmAlign}};
  EXPECT_THROW((void)encode_pair_jobs(table, outside), AlignError);
  const std::vector<PairSpec> null_chain{{1, 0, Method::TmAlign}};
  EXPECT_THROW((void)encode_pair_jobs(table, null_chain), AlignError);
  // A null entry no spec references is fine.
  const std::vector<PairSpec> self{{0, 0, Method::TmAlign}};
  EXPECT_EQ(encode_pair_jobs(table, self).size(), 1u);
}

}  // namespace
}  // namespace rck::rckalign
