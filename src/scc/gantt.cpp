#include "rck/scc/gantt.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <vector>

namespace rck::scc {

namespace {

constexpr std::size_t kKinds = 6;

/// Chart characters in Compute, Send, Recv, Poll, Dram, Blocked order, which
/// is also the order a tie for the busiest kind resolves in.
constexpr std::array<char, kKinds> kKindChars{'C', 'S', 'R', 'P', 'D', 'b'};

/// Index of `name` among the activity span names, or -1.
int kind_of(const obs::Std& ids, obs::NameId name) noexcept {
  const std::array<obs::NameId, kKinds> names{ids.n_compute, ids.n_send, ids.n_recv,
                                              ids.n_poll,    ids.n_dram, ids.n_blocked};
  for (std::size_t k = 0; k < kKinds; ++k)
    if (names[k] == name) return static_cast<int>(k);
  return -1;
}

}  // namespace

char gantt_char(const obs::Std& ids, obs::NameId name) noexcept {
  const int kind = kind_of(ids, name);
  return kind < 0 ? '?' : kKindChars[static_cast<std::size_t>(kind)];
}

std::string render_gantt(const obs::Recorder& rec, noc::SimTime makespan,
                         const GanttOptions& opts) {
  const int nranks = rec.core_shards();
  if (nranks < 1 || opts.width < 1)
    throw ChipError("render_gantt: bad dimensions");
  const std::size_t width = static_cast<std::size_t>(opts.width);
  const double span = makespan > 0 ? static_cast<double>(makespan) : 1.0;

  // occupancy[rank][column][kind] = accumulated time
  std::vector<double> occupancy(static_cast<std::size_t>(nranks) * width * kKinds, 0.0);
  auto cell = [&](int rank, std::size_t col, std::size_t kind) -> double& {
    return occupancy[(static_cast<std::size_t>(rank) * width + col) * kKinds + kind];
  };

  const auto column = [width](double t) {
    return std::min(width - 1, static_cast<std::size_t>(std::max(0.0, t)));
  };
  for (int rank = 0; rank < nranks; ++rank) {
    for (const obs::TraceRecord& r : rec.shard_trace(rank)) {
      if (r.ph != obs::Ph::Span || r.lane != obs::Lane::Core) continue;
      const int kind = kind_of(rec.std_ids(), r.name);
      if (kind < 0) continue;
      const double t0 = static_cast<double>(r.ts) / span * static_cast<double>(width);
      const double t1 =
          static_cast<double>(r.ts + r.dur) / span * static_cast<double>(width);
      const std::size_t last = column(t1);
      for (std::size_t c = column(t0); c <= last; ++c) {
        const double lo = std::max(t0, static_cast<double>(c));
        const double hi = std::min(t1, static_cast<double>(c + 1));
        if (hi > lo) cell(rank, c, static_cast<std::size_t>(kind)) += hi - lo;
      }
    }
  }

  std::ostringstream os;
  char label[16];
  for (int rank = 0; rank < nranks; ++rank) {
    std::snprintf(label, sizeof label, "rck%02d |", rank);
    os << label;
    for (std::size_t c = 0; c < width; ++c) {
      double best = 0.0;
      char ch = '.';
      for (std::size_t k = 0; k < kKinds; ++k) {
        const double v = cell(rank, c, k);
        if (v > best) {
          best = v;
          ch = kKindChars[k];
        }
      }
      os << ch;
    }
    os << '|' << (rank == 0 ? " master" : "") << '\n';
  }
  if (opts.show_legend) {
    os << "       0s" << std::string(width > 16 ? width - 16 : 0, ' ')
       << noc::to_seconds(makespan) << "s\n"
       << "       C compute  S send  R recv  P poll  D dram  b blocked  . idle\n";
  }
  return os.str();
}

}  // namespace rck::scc
