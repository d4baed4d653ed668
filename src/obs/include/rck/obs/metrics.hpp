// rck::obs metrics: counters, gauges and log2-bucket histograms.
//
// Metrics are recorded into per-shard slots (one shard per simulated core
// plus one "system" shard for code running under the scheduler lock) and
// merged deterministically at report time: counters and histograms sum in
// shard order, gauges resolve last-write-wins by (timestamp, shard). The
// hot path is allocation-free: every metric is a fixed slot in arrays sized
// at registration time, and a histogram is a fixed 64-bucket array.
//
// The registry maps names to dense ids. Registration happens at setup time
// (before the simulation starts recording); re-registering a name returns
// the existing id so independent subsystems can share metrics by name.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rck/error.hpp"

namespace rck::obs {

/// Observability-API misuse (duplicate metric registration, interning after
/// seal, negative shard counts). Code "rck.obs.misuse".
class ObsError : public rck::Error {
 public:
  explicit ObsError(const std::string& message)
      : Error("rck.obs.misuse", message) {}
};

/// obs::flush I/O failure (cannot open / short write). Code "rck.obs.io".
class ObsIoError : public rck::Error {
 public:
  explicit ObsIoError(const std::string& message)
      : Error("rck.obs.io", message) {}
};

/// Timestamps are simulated picoseconds (same unit as noc::SimTime; obs sits
/// below noc in the dependency order, so it spells the type out).
using Ts = std::uint64_t;

/// Integer-safe JSON number formatting shared by every stable-bytes JSON
/// emitter in the repo (obs metrics, rck::QueryResult, bench writers):
/// doubles use %.17g (round-trips exactly, locale-independent for the
/// values we emit), u64 avoids the double-precision integer cliff entirely.
/// Equal values produce equal bytes, which is what the byte-identity
/// contracts (across host-pool widths) are built on.
void append_json_double(std::string& out, double v);
void append_json_u64(std::string& out, std::uint64_t v);
/// JSON string literal with the usual escapes (quotes, backslash, control
/// characters as \u00XX), appended including the surrounding quotes.
void append_json_escaped(std::string& out, std::string_view s);

enum class Unit : std::uint8_t { None, Ps, Bytes, Cycles, Flits, Jobs };

/// Short stable suffix used in metric JSON ("ps", "bytes", ...).
std::string_view unit_name(Unit u) noexcept;

struct CounterId {
  std::uint32_t v = UINT32_MAX;
  bool ok() const noexcept { return v != UINT32_MAX; }
};
struct GaugeId {
  std::uint32_t v = UINT32_MAX;
  bool ok() const noexcept { return v != UINT32_MAX; }
};
struct HistId {
  std::uint32_t v = UINT32_MAX;
  bool ok() const noexcept { return v != UINT32_MAX; }
};

/// Fixed-shape log2 histogram. Bucket k counts values whose bit width is k:
/// bucket 0 holds v == 0, bucket k (k >= 1) holds v in [2^(k-1), 2^k).
/// With 64-bit values every input maps to a bucket, so "overflow" cannot
/// drop an observation; the top bucket saturates the range instead.
struct Histogram {
  static constexpr std::size_t kBuckets = 65;  // bit_width in [0, 64]

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< saturating (clamps at UINT64_MAX, never wraps)
  std::uint64_t min = UINT64_MAX;  ///< meaningful only when count > 0
  std::uint64_t max = 0;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive-exclusive value range [lo, hi) of bucket k; the top bucket's
  /// hi saturates at UINT64_MAX.
  static std::pair<std::uint64_t, std::uint64_t> bucket_range(std::size_t k) noexcept;

  void observe(std::uint64_t v) noexcept {
    buckets[bucket_of(v)] += 1;
    count += 1;
    const std::uint64_t s = sum + v;
    sum = s < sum ? UINT64_MAX : s;  // saturate instead of wrapping
    if (v < min) min = v;
    if (v > max) max = v;
  }

  void merge(const Histogram& o) noexcept;

  bool operator==(const Histogram&) const = default;
};

/// Name/unit registry handing out dense metric ids. Not thread-safe: all
/// registration happens at setup time, before concurrent recording starts.
class Registry {
 public:
  struct Info {
    std::string name;
    Unit unit = Unit::None;
  };

  CounterId counter(std::string_view name, Unit unit = Unit::None);
  GaugeId gauge(std::string_view name, Unit unit = Unit::None);
  HistId histogram(std::string_view name, Unit unit = Unit::None);

  const std::vector<Info>& counters() const noexcept { return counters_; }
  const std::vector<Info>& gauges() const noexcept { return gauges_; }
  const std::vector<Info>& histograms() const noexcept { return histograms_; }

 private:
  std::uint32_t intern(std::vector<Info>& infos, std::string_view name, Unit unit,
                       const char* kind);
  std::vector<Info> counters_, gauges_, histograms_;
};

/// Deterministically merged end-of-run metrics view. Serializes to stable
/// bytes: same recorded values => byte-identical JSON, regardless of host
/// scheduling.
struct Snapshot {
  struct CounterRow {
    std::string name;
    Unit unit = Unit::None;
    std::uint64_t value = 0;               ///< sum over shards
    std::vector<std::uint64_t> per_shard;  ///< one entry per shard
  };
  struct GaugeRow {
    std::string name;
    Unit unit = Unit::None;
    double value = 0.0;  ///< last write by (ts, shard); 0 when never set
    bool set = false;
  };
  struct HistRow {
    std::string name;
    Unit unit = Unit::None;
    Histogram merged;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistRow> histograms;
  /// Extra top-level sections appended after "histograms": (key, raw JSON
  /// value) pairs emitted verbatim in order (see Recorder::set_section).
  /// Empty for ordinary runs, so the document bytes are unchanged.
  std::vector<std::pair<std::string, std::string>> extra;

  /// Stable JSON document ("rck-obs-metrics-v1" schema, see DESIGN.md).
  std::string to_json() const;
};

}  // namespace rck::obs
