// Simulated-time base types.
//
// The whole simulation uses integer picoseconds. Picoseconds make cycle
// arithmetic exact for the frequencies we model (one 800 MHz P54C cycle is
// exactly 1250 ps) and a 64-bit count still spans ~213 days of simulated
// time — four orders of magnitude beyond the longest experiment (~8 simulated
// hours). Integer time keeps runs bit-for-bit reproducible; floating-point
// clocks drift differently under reordering.
#pragma once

#include <cstdint>

namespace rck::noc {

/// Simulated time in picoseconds since simulation start.
using SimTime = std::uint64_t;

/// Sentinel "beyond any simulated instant" (e.g. the next event time of an
/// empty queue).
constexpr SimTime kTimeInfinity = ~SimTime{0};

constexpr SimTime kPsPerNs = 1000;
constexpr SimTime kPsPerUs = 1000 * kPsPerNs;
constexpr SimTime kPsPerMs = 1000 * kPsPerUs;
constexpr SimTime kPsPerSec = 1000 * kPsPerMs;

/// Convert simulated picoseconds to (double) seconds for reporting.
constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kPsPerSec);
}

/// Convert (double) seconds to simulated picoseconds, rounding to nearest.
constexpr SimTime from_seconds(double s) noexcept {
  return static_cast<SimTime>(s * static_cast<double>(kPsPerSec) + 0.5);
}

/// Picoseconds per clock cycle at `freq_hz`, rounded to nearest. Exact for
/// the frequencies used in the paper (800 MHz, 2.4 GHz).
constexpr SimTime cycle_ps(double freq_hz) noexcept {
  return static_cast<SimTime>(1e12 / freq_hz + 0.5);
}

}  // namespace rck::noc
