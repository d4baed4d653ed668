#include "rck/rckalign/codec.hpp"

#include <optional>
#include <string>

#include "rck/rckalign/error.hpp"

namespace rck::rckalign {

namespace {

/// A job payload from the bio::serialize() bytes of its two chains.
bio::Bytes encode_pair_job_wire(std::uint32_t i, std::uint32_t j, Method method,
                                const bio::Bytes& a_wire, const bio::Bytes& b_wire) {
  bio::WireWriter w;
  w.u32(i);
  w.u32(j);
  w.u8(static_cast<std::uint8_t>(method));
  w.u32(static_cast<std::uint32_t>(a_wire.size()));
  w.raw(a_wire);
  w.u32(static_cast<std::uint32_t>(b_wire.size()));
  w.raw(b_wire);
  return w.take();
}

bio::Protein decode_protein_from(bio::WireReader& r) {
  const std::uint32_t len = r.u32();
  return bio::deserialize_protein(r.raw(len));
}

}  // namespace

bio::Bytes encode_pair_job(std::uint32_t i, std::uint32_t j, Method method,
                           const bio::Protein& a, const bio::Protein& b) {
  return encode_pair_job_wire(i, j, method, bio::serialize(a), bio::serialize(b));
}

std::vector<bio::Bytes> encode_pair_jobs(std::span<const bio::Protein* const> structures,
                                         std::span<const PairSpec> specs) {
  // wires[k] is filled the first time a spec references structure k; the
  // table never resizes, so a reference into it stays valid.
  std::vector<std::optional<bio::Bytes>> wires(structures.size());
  const auto wire = [&](std::size_t spec, std::uint32_t k) -> const bio::Bytes& {
    if (k >= structures.size())
      throw AlignError("encode_pair_jobs: spec " + std::to_string(spec) +
                       " indexes outside the structure table");
    if (structures[k] == nullptr)
      throw AlignError("encode_pair_jobs: spec " + std::to_string(spec) +
                       " references a null structure");
    if (!wires[k]) wires[k] = bio::serialize(*structures[k]);
    return *wires[k];
  };
  std::vector<bio::Bytes> payloads;
  payloads.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    const bio::Bytes& a = wire(k, s.a);
    const bio::Bytes& b = wire(k, s.b);
    payloads.push_back(encode_pair_job_wire(s.a, s.b, s.method, a, b));
  }
  return payloads;
}

PairJobData decode_pair_job(bio::Bytes payload) {
  bio::WireReader r(std::move(payload));
  PairJobData d;
  d.i = r.u32();
  d.j = r.u32();
  d.method = static_cast<Method>(r.u8());
  d.a = decode_protein_from(r);
  d.b = decode_protein_from(r);
  if (!r.done()) throw bio::WireError("decode_pair_job: trailing bytes");
  return d;
}

PairSpec decode_pair_spec(std::span<const std::byte> payload) {
  bio::WireReader r(payload);
  PairSpec k;
  k.a = r.u32();
  k.b = r.u32();
  k.method = static_cast<Method>(r.u8());
  return k;
}

bio::Bytes encode_outcome(const PairOutcome& o) {
  bio::WireWriter w;
  w.u32(o.i);
  w.u32(o.j);
  w.u8(static_cast<std::uint8_t>(o.method));
  w.f64(o.tm_norm_a);
  w.f64(o.tm_norm_b);
  w.f64(o.rmsd);
  w.f64(o.seq_identity);
  w.u32(o.aligned_length);
  w.u64(o.work_cycles);
  return w.take();
}

PairOutcome decode_outcome(bio::Bytes payload) {
  bio::WireReader r(std::move(payload));
  PairOutcome o;
  o.i = r.u32();
  o.j = r.u32();
  o.method = static_cast<Method>(r.u8());
  o.tm_norm_a = r.f64();
  o.tm_norm_b = r.f64();
  o.rmsd = r.f64();
  o.seq_identity = r.f64();
  o.aligned_length = r.u32();
  o.work_cycles = r.u64();
  if (!r.done()) throw bio::WireError("decode_outcome: trailing bytes");
  return o;
}

}  // namespace rck::rckalign
