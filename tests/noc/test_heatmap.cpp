#include "rck/noc/error.hpp"
#include "rck/noc/heatmap.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rck/noc/network.hpp"

namespace rck::noc {
namespace {

TEST(UtilizationDigit, Buckets) {
  EXPECT_EQ(utilization_digit(0.0), '0');
  EXPECT_EQ(utilization_digit(0.05), '0');
  EXPECT_EQ(utilization_digit(0.10), '1');
  EXPECT_EQ(utilization_digit(0.55), '5');
  EXPECT_EQ(utilization_digit(0.94), '9');
  EXPECT_EQ(utilization_digit(0.95), '*');
  EXPECT_EQ(utilization_digit(2.0), '*');
  EXPECT_EQ(utilization_digit(-1.0), '0');
}

/// A bare network with a collecting recorder attached as its observer, the
/// way SpmdRuntime attaches its recorder's system shard.
struct Observed {
  explicit Observed(Mesh mesh, NetworkParams params = {})
      : net(q, std::move(mesh), params) {
    rec.seal();
    net.set_observer(obs::Handle(&rec, rec.system_shard()));
  }
  std::string map(SimTime makespan) const {
    return render_link_heatmap(rec, net.mesh(), makespan);
  }

  EventQueue q;
  obs::Recorder rec{obs::Config::collect(), 0};
  Network net;
};

TEST(Heatmap, RendersAllRouters) {
  const Observed o(Mesh(6, 4));
  const std::string map = o.map(kPsPerSec);
  for (int n = 0; n < 24; ++n) {
    char label[8];
    std::snprintf(label, sizeof label, "[%02d]", n);
    EXPECT_NE(map.find(label), std::string::npos) << n;
  }
}

TEST(Heatmap, IdleNetworkAllZero) {
  const Observed o(Mesh(3, 3));
  std::string map = o.map(kPsPerSec);
  map.resize(map.find("link utilization"));  // drop the legend line
  // Utilization digits appear right after 'v' (vertical links) and right
  // before '>' (horizontal links); router ids in [NN] labels don't count.
  for (std::size_t k = 0; k + 1 < map.size(); ++k) {
    if (map[k] == 'v') {
      EXPECT_EQ(map[k + 1], '0') << "vertical link at " << k;
    }
    if (map[k + 1] == '>') {
      EXPECT_EQ(map[k], '0') << "horizontal link at " << k;
    }
  }
}

TEST(Heatmap, BusyLinkShowsUp) {
  NetworkParams params;
  params.bytes_per_ns = 1.0;
  Observed o(Mesh(3, 3), params);
  // Saturate link 0->1 for ~the whole window.
  const SimTime window = 10 * kPsPerUs;
  for (int k = 0; k < 12; ++k) o.net.send(0, 1, 800, 0, [](SimTime) {});
  o.q.run();
  const std::string map = o.map(window);
  // The first east-link digit (between [00] and [01]) must be high.
  const std::size_t pos = map.find("[00] ");
  ASSERT_NE(pos, std::string::npos);
  const char digit = map[pos + 5];
  EXPECT_TRUE(digit == '*' || digit >= '8') << digit;
}

TEST(Heatmap, LinkSpansSumToLinkStatsBusy) {
  // The renderer's busy time per link is the sum of the observer's link
  // spans; it must equal what the network itself accumulated.
  Observed o(Mesh(4, 3));
  for (int k = 0; k < 24; ++k)
    o.net.send(k % 12, (5 * k + 7) % 12, 64 + 100 * static_cast<std::uint64_t>(k),
               static_cast<SimTime>(k) * kPsPerNs, [](SimTime) {});
  o.q.run();
  const Mesh& mesh = o.net.mesh();
  std::vector<SimTime> sums(static_cast<std::size_t>(mesh.link_index_bound()), 0);
  for (const obs::TraceRecord& r : o.rec.shard_trace(o.rec.system_shard()))
    if (r.lane == obs::Lane::LinkX || r.lane == obs::Lane::LinkY) sums[r.id] += r.dur;
  SimTime total = 0;
  for (int n = 0; n < mesh.node_count(); ++n) {
    for (int m = 0; m < mesh.node_count(); ++m) {
      if (mesh.hops(n, m) != 1) continue;
      const SimTime busy = o.net.link_stats({n, m}).busy;
      EXPECT_EQ(sums[static_cast<std::size_t>(mesh.link_index({n, m}))], busy)
          << n << "->" << m;
      total += busy;
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(Heatmap, ZeroMakespanRejected) {
  const Observed o(Mesh(3, 3));
  EXPECT_THROW(o.map(0), rck::noc::NocError);
}

}  // namespace
}  // namespace rck::noc
