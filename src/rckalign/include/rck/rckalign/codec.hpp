// Wire codec for rckAlign jobs and results.
//
// The paper's key design point: the master process loads every structure
// once and ships the *structure data itself* to slaves over the mesh
// (avoiding the NFS bottleneck of the distributed baseline). A job payload
// therefore carries both chains in full, plus the pair indices and the
// comparison method to run (the method tag enables the MC-PSC extension,
// where different slaves run different PSC algorithms on the same data).
// Every farm run builds all of its payloads with encode_pair_jobs(), which
// serializes each structure once however many jobs it appears in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/bio/serialize.hpp"

namespace rck::rckalign {

/// Comparison method selector carried in each job.
enum class Method : std::uint8_t {
  TmAlign = 1,     ///< the paper's primary algorithm
  GaplessRmsd = 2, ///< cheap second criterion for the MC-PSC extension
  CeAlign = 3,     ///< CE-style distance-matrix alignment (core/ce_align.hpp)
  SeqNw = 4,       ///< BLOSUM62 sequence alignment (bio/seq_align.hpp) —
                   ///< the ultra-cheap pre-filter; fills seq_identity only
};

/// One requested comparison: chain `a` is aligned onto chain `b` (TM-align
/// is asymmetric; tm_norm_a in the row is normalized by `a`'s length).
/// Indices address the sender's structure table — for run_pairs(), the one
/// passed to it. Duplicate specs are allowed — rows map back through their
/// spec index.
struct PairSpec {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  Method method = Method::TmAlign;

  auto operator<=>(const PairSpec&) const = default;
};

/// Decoded job payload.
struct PairJobData {
  std::uint32_t i = 0;  ///< dataset index of chain a
  std::uint32_t j = 0;  ///< dataset index of chain b
  Method method = Method::TmAlign;
  bio::Protein a;
  bio::Protein b;
};

/// Payload layout: [u32 i][u32 j][u8 method], then per chain
/// [u32 length][bio::serialize() bytes], a before b.
bio::Bytes encode_pair_job(std::uint32_t i, std::uint32_t j, Method method,
                           const bio::Protein& a, const bio::Protein& b);
/// One payload per spec, in spec order: payload k is byte-identical to
/// encode_pair_job(specs[k].a, specs[k].b, specs[k].method,
/// *structures[specs[k].a], *structures[specs[k].b]). Each referenced
/// structure is serialized at most once per call. Throws AlignError when a
/// spec indexes outside `structures` or references a null structure.
std::vector<bio::Bytes> encode_pair_jobs(std::span<const bio::Protein* const> structures,
                                         std::span<const PairSpec> specs);
PairJobData decode_pair_job(bio::Bytes payload);
/// Only the header of a job payload: which comparison it asks for. The
/// chains are not decoded.
PairSpec decode_pair_spec(std::span<const std::byte> payload);

/// Decoded result payload (what a slave returns to the master).
struct PairOutcome {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  Method method = Method::TmAlign;
  double tm_norm_a = 0.0;   ///< TM-align only
  double tm_norm_b = 0.0;   ///< TM-align only
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  std::uint64_t work_cycles = 0;  ///< compute cycles the slave charged
};

bio::Bytes encode_outcome(const PairOutcome& o);
PairOutcome decode_outcome(bio::Bytes payload);

}  // namespace rck::rckalign
