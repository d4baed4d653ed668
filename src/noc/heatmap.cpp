#include "rck/noc/error.hpp"
#include "rck/noc/heatmap.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

namespace rck::noc {

char utilization_digit(double fraction) noexcept {
  if (fraction >= 0.95) return '*';
  if (fraction < 0.0) fraction = 0.0;
  const int tenth = std::min(9, static_cast<int>(fraction * 10.0));
  return static_cast<char>('0' + tenth);
}

std::string render_link_heatmap(const obs::Recorder& rec, const Mesh& mesh,
                                SimTime makespan) {
  if (makespan == 0) throw NocError("render_link_heatmap: zero makespan");

  // Busy time per directed link, indexed like Mesh::link_index.
  std::vector<SimTime> busy(static_cast<std::size_t>(mesh.link_index_bound()), 0);
  const obs::NameId link = rec.std_ids().n_link;
  for (int s = 0; s < rec.shard_count(); ++s) {
    for (const obs::TraceRecord& r : rec.shard_trace(s)) {
      if (r.ph == obs::Ph::Span && r.name == link && r.id < busy.size() &&
          (r.lane == obs::Lane::LinkX || r.lane == obs::Lane::LinkY))
        busy[r.id] += r.dur;
    }
  }

  // Digits are tenths of the busiest link's busy time: a farm's links stay
  // idle for most of a run, so tenths of the makespan would read all 0. An
  // idle network keeps the scale at 1 and reads all 0.
  const SimTime busiest = busy.empty() ? 0 : *std::max_element(busy.begin(), busy.end());
  const double scale = busiest > 0 ? static_cast<double>(busiest) : 1.0;
  const auto util = [&](int from, int to) {
    const auto idx = static_cast<std::size_t>(mesh.link_index({from, to}));
    return static_cast<double>(busy[idx]) / scale;
  };
  // Busier direction of the {a->b, b->a} pair.
  const auto pair_util = [&](int a, int b) { return std::max(util(a, b), util(b, a)); };

  std::ostringstream os;
  char buf[16];
  for (int y = 0; y < mesh.rows(); ++y) {
    // Router row with eastward links.
    for (int x = 0; x < mesh.cols(); ++x) {
      const int n = mesh.node({x, y});
      std::snprintf(buf, sizeof buf, "[%02d]", n);
      os << buf;
      if (x + 1 < mesh.cols())
        os << ' ' << utilization_digit(pair_util(n, mesh.node({x + 1, y}))) << '>';
    }
    os << '\n';
    // Vertical links to the next row.
    if (y + 1 < mesh.rows()) {
      for (int x = 0; x < mesh.cols(); ++x) {
        const int n = mesh.node({x, y});
        os << " v" << utilization_digit(pair_util(n, mesh.node({x, y + 1})));
        if (x + 1 < mesh.cols()) os << "    ";
      }
      os << '\n';
    }
  }
  std::snprintf(buf, sizeof buf, "%.3g%%",
                100.0 * static_cast<double>(busiest) / static_cast<double>(makespan));
  os << "link utilization in tenths of the busiest link's busy time ('*' >= 95%); "
        "busier direction of each pair shown; the busiest link was busy "
     << buf << " of the run\n";
  return os.str();
}

}  // namespace rck::noc
