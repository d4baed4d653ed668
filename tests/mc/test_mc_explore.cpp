// End-to-end bounded exploration through the rck:: umbrella: clean configs
// stay bit-identical across every explored schedule, seeded protocol
// mutants are caught, and the written witness replays to the same
// violation (serialize -> replay -> identical verdict).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "rck/bio/synthetic.hpp"
#include "rck/rck.hpp"

namespace rck {
namespace {

std::vector<bio::Protein> tiny_dataset(int structures = 5) {
  bio::Rng rng(0xE5C0u);
  static constexpr int kLengths[] = {30, 44, 61, 37, 52};
  std::vector<bio::Protein> ds;
  for (int i = 0; i < structures; ++i) {
    ds.push_back(
        bio::make_protein("mc/t" + std::to_string(i), kLengths[i % 5], rng));
  }
  return ds;
}

TEST(McExplore, CleanFarmExploresBitIdentical) {
  const auto ds = tiny_dataset();
  const rckalign::PairCache cache = rckalign::PairCache::build(ds);
  RunConfig cfg;
  cfg.with_slaves(3)
      .with_cache(&cache)
      .with_mc_bound(48)
      .with_mc_label("test/plain");
  const McOutcome out = mc_explore(ds, cfg);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_GE(out.schedules, 2u);  // ties exist even on a tiny config
  EXPECT_LE(out.schedules, 48u);
  EXPECT_NE(out.canonical_digest, 0u);

  // Exploration is itself deterministic: same config, same digest, same
  // schedule count.
  const McOutcome again = mc_explore(ds, cfg);
  EXPECT_EQ(again.canonical_digest, out.canonical_digest);
  EXPECT_EQ(again.schedules, out.schedules);
}

TEST(McExplore, BatchConfigMatchesPlainDigest) {
  // Batched grants change the message pattern but not the scored matrix:
  // the canonical digests of the two configs must agree (the same rows are
  // hashed, worker assignment excluded).
  const auto ds = tiny_dataset();
  const rckalign::PairCache cache = rckalign::PairCache::build(ds);
  RunConfig plain;
  plain.with_slaves(3).with_cache(&cache).with_mc_bound(8);
  RunConfig batch;
  batch.with_slaves(3).with_cache(&cache).with_batch(3).with_mc_bound(8);
  EXPECT_EQ(mc_explore(ds, plain).canonical_digest,
            mc_explore(ds, batch).canonical_digest);
}

TEST(McExplore, MutantCaughtAndWitnessReplaysIdentically) {
  const auto ds = tiny_dataset();
  const rckalign::PairCache cache = rckalign::PairCache::build(ds);
  const std::string witness_path =
      (std::filesystem::temp_directory_path() / "rck_mc_test_witness.json")
          .string();

  RunConfig cfg;
  cfg.with_slaves(3)
      .with_cache(&cache)
      .with_fault_tolerance()
      .with_mc_bound(128)
      .with_mc_label("test/ft-double-grant")
      .with_mc_witness(witness_path)
      .with_protocol_mutant(rckskel::ProtocolMutant::DoubleGrant);
  const McOutcome out = mc_explore(ds, cfg);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->invariant, "lease_safety");
  EXPECT_EQ(out.witness.invariant, "lease_safety");

  // serialize -> replay -> identical violation.
  const mc::Witness saved = mc::load_witness(witness_path);
  EXPECT_EQ(saved, out.witness);
  RunConfig replay_cfg = cfg;
  replay_cfg.with_mc_witness("").with_mc_replay(witness_path);
  const McOutcome replayed = mc_replay(ds, replay_cfg);
  ASSERT_TRUE(replayed.violation.has_value());
  EXPECT_EQ(replayed.violation->invariant, out.violation->invariant);
  EXPECT_EQ(replayed.violation->detail, out.violation->detail);
  std::remove(witness_path.c_str());
}

TEST(McExplore, ValidationRejectsConflictingPaths) {
  RunConfig cfg;
  cfg.with_mc_replay("w.json").with_mc_witness("w.json");
  EXPECT_FALSE(cfg.validate().empty());
}

}  // namespace
}  // namespace rck
