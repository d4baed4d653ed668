// Cross-cutting integration of the PSC toolbox: the alignment methods,
// quality metrics and CP search must tell one consistent story about the
// same structures, and the simulated platform variants (torus fabric,
// DVFS) must never change the science.
#include <gtest/gtest.h>

#include "rck/bio/dataset.hpp"
#include "rck/core/ce_align.hpp"
#include "rck/core/cp_align.hpp"
#include "rck/core/quality.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/app.hpp"

namespace rck {
namespace {

TEST(Toolbox, MethodsAgreeOnModelQualityOrdering) {
  // Build a native and two models of decreasing quality; TM-align,
  // CE and score_model must all rank them the same way.
  bio::Rng rng(1);
  const bio::Protein native = bio::make_protein("native", 110, rng);
  auto degrade = [&](double sigma) {
    bio::Protein m = native;
    std::normal_distribution<double> n(0.0, sigma);
    for (bio::Residue& r : m.residues()) r.ca += {n(rng), n(rng), n(rng)};
    return m;
  };
  const bio::Protein good = degrade(0.5);
  const bio::Protein bad = degrade(3.0);

  EXPECT_GT(core::tmalign(good, native).tm(), core::tmalign(bad, native).tm());
  EXPECT_GT(core::ce_align(good, native).tm, core::ce_align(bad, native).tm);
  EXPECT_GT(core::score_model_by_index(good, native).gdt_ts,
            core::score_model_by_index(bad, native).gdt_ts);
}

TEST(Toolbox, QualityTmMatchesTmAlignOnTrivialCorrespondence) {
  // For a rigidly moved copy, the fixed index pairing IS the optimal
  // alignment; score_model's TM must essentially equal tmalign's.
  bio::Rng rng(2);
  const bio::Protein p = bio::make_protein("p", 90, rng);
  const bio::Protein q = p.transformed(bio::random_transform(rng));
  const double fixed_tm = core::score_model_by_index(q, p).tm;
  const double searched_tm = core::tmalign(q, p).tm_norm_b;
  EXPECT_NEAR(fixed_tm, searched_tm, 0.01);
}

TEST(Toolbox, CpAlignConsistentWithCeOnPermutant) {
  // A circular permutant: sequential TM-align and CE both degrade; cp_align
  // recovers. CE's rigid core should at least match the permutant's larger
  // contiguous segment.
  bio::Rng rng(3);
  const bio::Protein a = bio::make_protein("a", 100, rng);
  bio::Protein b = core::rotate_chain(a, 40);
  b.apply(bio::random_transform(rng));

  const double tm_seq = core::tmalign(a, b).tm();
  core::CpAlignOptions cp_opts;
  cp_opts.rotation_stride = 10;
  const core::CpAlignResult cp = core::cp_align(a, b, cp_opts);
  EXPECT_GT(cp.best.tm(), tm_seq);
  EXPECT_TRUE(cp.is_circular_permutation);

  // CE (sequential, fragment-based) finds the bigger contiguous piece:
  // 60 residues of the 100 stay in order.
  const core::CeResult ce = core::ce_align(a, b);
  EXPECT_GE(ce.aligned_length, 40);
  EXPECT_LT(ce.aligned_length, 90);
}

TEST(Toolbox, OneVsAllSeqNwRanksFamilyFirst) {
  const auto db = bio::build_dataset(bio::tiny_spec());
  bio::Rng rng(4);
  const bio::Protein query = bio::perturb(db[0], "q", rng);  // family a
  RunConfig cfg;
  cfg.with_slaves(3).with_method(rckalign::Method::SeqNw);
  const auto hits = run_query(db, Query::one_vs_all(query), cfg).hits;
  ASSERT_EQ(hits.size(), db.size());
  // Descending identity; top hits are family a (indices 0-2).
  for (std::size_t k = 1; k < hits.size(); ++k)
    EXPECT_GE(hits[k - 1].seq_identity, hits[k].seq_identity);
  EXPECT_LE(hits[0].entry, 2u);
  EXPECT_GT(hits[0].seq_identity, 0.6);
}

TEST(Toolbox, TorusFabricChangesTimingNotScience) {
  const auto ds = bio::build_dataset(bio::tiny_spec());
  const rckalign::PairCache cache = rckalign::PairCache::build(ds);
  rckalign::RckAlignOptions mesh_opts;
  mesh_opts.slave_count = 5;
  mesh_opts.cache = &cache;
  rckalign::RckAlignOptions torus_opts = mesh_opts;
  torus_opts.runtime.chip.torus_mesh = true;

  const auto mesh_run = rckalign::run_rckalign(ds, mesh_opts);
  const auto torus_run = rckalign::run_rckalign(ds, torus_opts);
  // Identical science...
  ASSERT_EQ(mesh_run.results.size(), torus_run.results.size());
  auto key = [](const rckalign::PairRow& r) {
    return std::tuple{r.i, r.j, r.tm_norm_a, r.rmsd};
  };
  auto a = mesh_run.results, b = torus_run.results;
  auto by_pair = [&](const auto& x, const auto& y) { return key(x) < key(y); };
  std::sort(a.begin(), a.end(), by_pair);
  std::sort(b.begin(), b.end(), by_pair);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(key(a[k]), key(b[k]));
  // ...and (at most) marginally different timing: comm is negligible here.
  const double ratio = static_cast<double>(torus_run.makespan) /
                       static_cast<double>(mesh_run.makespan);
  EXPECT_NEAR(ratio, 1.0, 0.01);
}

TEST(Toolbox, DvfsChangesTimingNotScience) {
  const auto ds = bio::build_dataset(bio::tiny_spec());
  const rckalign::PairCache cache = rckalign::PairCache::build(ds);
  rckalign::RckAlignOptions slow;
  slow.slave_count = 4;
  slow.cache = &cache;
  slow.runtime.core_freq_scale = std::vector<double>(5, 0.5);
  rckalign::RckAlignOptions normal = slow;
  normal.runtime.core_freq_scale.clear();

  const auto slow_run = rckalign::run_rckalign(ds, slow);
  const auto normal_run = rckalign::run_rckalign(ds, normal);
  EXPECT_GT(slow_run.makespan, normal_run.makespan);
  ASSERT_EQ(slow_run.results.size(), normal_run.results.size());
  // Half-speed slaves: compute-dominated makespan about doubles.
  const double ratio = static_cast<double>(slow_run.makespan) /
                       static_cast<double>(normal_run.makespan);
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Toolbox, FastOptionsPreserveFamilyStructure) {
  // Fast TM-align must classify the tiny dataset identically to the full
  // search at the fold threshold.
  const auto ds = bio::build_dataset(bio::tiny_spec());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.size(); ++j) {
      const bool full = core::tmalign(ds[i], ds[j]).tm() > 0.5;
      const bool fast =
          core::tmalign(ds[i], ds[j], core::fast_tmalign_options()).tm() > 0.5;
      EXPECT_EQ(full, fast) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace rck
