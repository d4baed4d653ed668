// ASCII Gantt rendering of a run's per-core activity.
//
// Turns the compute/send/recv/poll/dram/blocked spans that the SPMD runtime
// leaves in each core's obs shard (RuntimeConfig::obs) into the classic
// one-row-per-core timeline:
//
//   rck00 |DSSSSPPPPPPPPPPPPPPPRSPPRS...| master
//   rck01 |bbCCCCCCCCCCCCCCCCCCSbbbCC...|
//
// with one character per time column: C compute, S send, R recv, P poll,
// D dram, b blocked, '.' idle. When several kinds fall into one column the
// busiest kind wins. Useful for eyeballing master bottlenecks and straggler
// tails without leaving the terminal.
#pragma once

#include <string>

#include "rck/noc/sim_time.hpp"
#include "rck/obs/obs.hpp"
#include "rck/scc/chip.hpp"

namespace rck::scc {

struct GanttOptions {
  int width = 100;          ///< timeline columns
  bool show_legend = true;  ///< append the kind legend
};

/// Render `rec`'s activity spans over [0, makespan], one row per core shard.
/// Every other record is ignored. Returns a multi-line string; throws
/// ChipError when the recorder has no core shard or the width is below 1.
std::string render_gantt(const obs::Recorder& rec, noc::SimTime makespan,
                         const GanttOptions& opts = {});

/// Chart character of an activity span name (ids.n_compute ... n_blocked);
/// '?' for any other name.
char gantt_char(const obs::Std& ids, obs::NameId name) noexcept;

}  // namespace rck::scc
