// Wire serialization for protein structures.
//
// In rckAlign the master core owns all structure data and ships each pair to
// a slave core through the on-chip network (this is the paper's key design
// decision: one loader process, no NFS contention). The simulator charges
// network time per byte, so the wire format must be explicit and its size
// predictable (Protein::wire_size). Encoding is little-endian, independent
// of host byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/error.hpp"

namespace rck::bio {

using Bytes = std::vector<std::byte>;

/// Error raised when decoding malformed or truncated payloads.
/// what() is prefixed "rck.bio.wire: " (see DESIGN.md, "Error taxonomy").
class WireError : public rck::Error {
 public:
  explicit WireError(const std::string& message) : Error("rck.bio.wire", message) {}
};

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void i32(std::int32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);  ///< u32 length prefix + bytes
  void raw(std::span<const std::byte> bytes);

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential little-endian decoder; throws WireError past the end.
class WireReader {
 public:
  /// View constructor: caller must keep `data` alive while reading.
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  /// Owning constructor: safe to use directly on a temporary, e.g.
  /// `WireReader r(ctx.recv(src));`.
  explicit WireReader(Bytes data) : owned_(std::move(data)), data_(owned_) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::int32_t i32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Read a u32 element count, rejecting (WireError) a count whose elements,
  /// at least `min_bytes` each, cannot fit in the remaining bytes. Callers
  /// can then size an allocation from the count without trusting it.
  std::uint32_t count(std::size_t min_bytes);
  /// Consume and return exactly `n` bytes.
  Bytes raw(std::size_t n);
  /// Consume and return all remaining bytes.
  Bytes rest();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  Bytes owned_;  // backing storage for the owning constructor (else empty)
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Encode a protein (name + residues). Size equals Protein::wire_size().
Bytes serialize(const Protein& p);

/// Decode a protein previously produced by serialize().
Protein deserialize_protein(std::span<const std::byte> data);

}  // namespace rck::bio
