#include "rck/bio/serialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>

namespace rck::bio {

namespace {

template <typename T>
void append_le(Bytes& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::array<std::byte, sizeof(T)> raw;
  std::memcpy(raw.data(), &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big)
    std::reverse(raw.begin(), raw.end());
  buf.insert(buf.end(), raw.begin(), raw.end());
}

template <typename T>
T read_le(std::span<const std::byte> data, std::size_t pos) {
  std::array<std::byte, sizeof(T)> raw;
  std::memcpy(raw.data(), data.data() + pos, sizeof(T));
  if constexpr (std::endian::native == std::endian::big)
    std::reverse(raw.begin(), raw.end());
  T v;
  std::memcpy(&v, raw.data(), sizeof(T));
  return v;
}

/// Encoded size of one residue: aa (u8), seq (i32), CA x/y/z (3 x f64).
constexpr std::size_t kResidueWireBytes = 1 + 4 + 3 * 8;

}  // namespace

void WireWriter::u8(std::uint8_t v) { append_le(buf_, v); }
void WireWriter::u32(std::uint32_t v) { append_le(buf_, v); }
void WireWriter::i32(std::int32_t v) { append_le(buf_, v); }
void WireWriter::u64(std::uint64_t v) { append_le(buf_, v); }
void WireWriter::f64(double v) { append_le(buf_, v); }

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void WireWriter::raw(std::span<const std::byte> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void WireReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("truncated payload");
}

std::uint8_t WireReader::u8() {
  need(1);
  const auto v = read_le<std::uint8_t>(data_, pos_);
  pos_ += 1;
  return v;
}
std::uint32_t WireReader::u32() {
  need(4);
  const auto v = read_le<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}
std::int32_t WireReader::i32() {
  need(4);
  const auto v = read_le<std::int32_t>(data_, pos_);
  pos_ += 4;
  return v;
}
std::uint64_t WireReader::u64() {
  need(8);
  const auto v = read_le<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}
double WireReader::f64() {
  need(8);
  const auto v = read_le<double>(data_, pos_);
  pos_ += 8;
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::uint32_t WireReader::count(std::size_t min_bytes) {
  const std::uint32_t n = u32();
  if (min_bytes != 0 && n > remaining() / min_bytes)
    throw WireError("count " + std::to_string(n) + " exceeds the " +
                    std::to_string(remaining()) + " bytes that remain");
  return n;
}

Bytes WireReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes WireReader::rest() {
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_), data_.end());
  pos_ = data_.size();
  return out;
}

Bytes serialize(const Protein& p) {
  WireWriter w;
  w.str(p.name());
  w.u32(static_cast<std::uint32_t>(p.size()));
  for (const Residue& r : p.residues()) {
    w.u8(static_cast<std::uint8_t>(r.aa));
    w.i32(r.seq);
    w.f64(r.ca.x);
    w.f64(r.ca.y);
    w.f64(r.ca.z);
  }
  return w.take();
}

Protein deserialize_protein(std::span<const std::byte> data) {
  WireReader r(data);
  std::string name = r.str();
  const std::uint32_t n = r.count(kResidueWireBytes);
  std::vector<Residue> residues;
  residues.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Residue res;
    res.aa = static_cast<char>(r.u8());
    res.seq = r.i32();
    res.ca.x = r.f64();
    res.ca.y = r.f64();
    res.ca.z = r.f64();
    residues.push_back(res);
  }
  return Protein(std::move(name), std::move(residues));
}

}  // namespace rck::bio
