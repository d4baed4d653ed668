#include "rck/bio/serialize.hpp"

#include <gtest/gtest.h>

#include "rck/bio/synthetic.hpp"

namespace rck::bio {
namespace {

TEST(Wire, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.i32(-12345);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159265358979);
  w.str("hello");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Wire, LittleEndianLayout) {
  WireWriter w;
  w.u32(0x01020304);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(b[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(b[3]), 0x01);
}

TEST(Wire, TruncationThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), WireError);
}

TEST(Wire, TruncatedStringThrows) {
  WireWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  WireReader r(w.bytes());
  EXPECT_THROW(r.str(), WireError);
}

TEST(Wire, RawAndRest) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  WireReader r(w.bytes());
  const Bytes first = r.raw(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(std::to_integer<int>(first[0]), 1);
  const Bytes rest = r.rest();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(std::to_integer<int>(rest[1]), 3);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.raw(1), WireError);
}

TEST(Wire, OwningReaderOutlivesTemporary) {
  // The owning constructor must keep the buffer alive; this is the pattern
  // used all over the message-passing code: WireReader r(comm.recv(...)).
  WireWriter w;
  w.str("payload");
  WireReader r(Bytes(w.bytes()));  // temporary moved in
  EXPECT_EQ(r.str(), "payload");
}

TEST(Wire, EmptyString) {
  WireWriter w;
  w.str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(ProteinSerialize, RoundTripExact) {
  Rng rng(5);
  const Protein p = make_protein("ser/test_1", 97, rng);
  const Bytes raw = serialize(p);
  const Protein q = deserialize_protein(raw);
  EXPECT_EQ(p, q);  // bitwise-identical coordinates expected
}

TEST(ProteinSerialize, EmptyNameRoundTrip) {
  const Protein p("", {{'A', 1, {1, 2, 3}}});
  EXPECT_EQ(deserialize_protein(serialize(p)), p);
}

TEST(ProteinSerialize, TruncatedPayloadThrows) {
  Rng rng(6);
  const Protein p = make_protein("t", 20, rng);
  Bytes raw = serialize(p);
  raw.resize(raw.size() - 5);
  EXPECT_THROW(deserialize_protein(raw), WireError);
}

TEST(Wire, CountRejectsElementsBeyondTheRemainingBytes) {
  WireWriter w;
  w.u32(3);
  w.raw(Bytes(12));
  const Bytes fits = w.take();
  WireReader ok(fits);
  EXPECT_EQ(ok.count(4), 3u);
  EXPECT_EQ(ok.remaining(), 12u);
  WireReader tight(fits);
  EXPECT_THROW(tight.count(5), WireError);
}

/// Overwrite the little-endian u32 at `at` with 0xFFFFFFFF.
void inflate_u32(Bytes& raw, std::size_t at) {
  for (std::size_t k = 0; k < 4; ++k) raw[at + k] = std::byte{0xFF};
}

TEST(ProteinSerialize, InflatedResidueCountRaisesWireCode) {
  Rng rng(8);
  const Protein p = make_protein("inflated", 12, rng);
  Bytes raw = serialize(p);
  inflate_u32(raw, 4 + p.name().size());  // after the u32-prefixed name
  try {
    (void)deserialize_protein(raw);
    FAIL() << "an inflated residue count decoded";
  } catch (const rck::Error& e) {
    EXPECT_EQ(e.code(), "rck.bio.wire");
  }
}

TEST(ProteinSerialize, SizeIsPredictable) {
  Rng rng(7);
  for (int len : {5, 60, 333}) {
    const Protein p = make_protein("sz", len, rng);
    EXPECT_EQ(serialize(p).size(), p.wire_size());
  }
}

}  // namespace
}  // namespace rck::bio
