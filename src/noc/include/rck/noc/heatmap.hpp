// ASCII utilization heatmap of the mesh links.
//
// Renders a run's per-link busy times onto the chip floorplan:
//
//   [00] 4>[01] 2>[02] ...
//    v1     v0     v3
//   [06] 1>[07] ...
//
// Each directed link pair is summarized by one digit 0-9: the busier
// direction's busy time in tenths of the busiest link's, '*' for >= 95%.
// The scale is relative because a farm keeps even its hottest link busy for
// only a few percent of the run; the legend line states that share. Makes
// hot rows / columns around the master visible at a glance.
#pragma once

#include <string>

#include "rck/noc/mesh.hpp"
#include "rck/noc/sim_time.hpp"
#include "rck/obs/obs.hpp"

namespace rck::noc {

/// Render the busy time of every adjacent link pair of `mesh` relative to
/// the busiest link's, followed by a legend line that starts with "link
/// utilization" and gives the busiest link's busy share of [0, makespan]
/// to three significant digits. A link's busy time is the sum of the `link`
/// spans on the X and Y lanes with its link index, in any shard of `rec`
/// (the spans a Network records through its observer; they sum to
/// LinkStats::busy). An idle network renders every digit as 0. Throws
/// NocError ("rck.noc.invalid") when makespan is 0.
std::string render_link_heatmap(const obs::Recorder& rec, const Mesh& mesh,
                                SimTime makespan);

/// Digit for a fraction: '0'..'9' in tenths, '*' for >= 0.95, clamped.
char utilization_digit(double fraction) noexcept;

}  // namespace rck::noc
