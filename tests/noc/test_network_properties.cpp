// Property sweeps over the network model: conservation, causality and
// contention invariants under randomized traffic (TEST_P over patterns).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>

#include "rck/noc/network.hpp"

namespace rck::noc {
namespace {

// gtest names each case by the parameter's raw bytes, and ctest registers
// those names at build time. A padding hole would put uninitialised stack
// bytes into the names, so every field is 64-bit and the struct has none.
struct TrafficParam {
  std::uint64_t seed;
  std::int64_t messages;
  std::uint64_t max_bytes;
};
static_assert(std::has_unique_object_representations_v<TrafficParam>,
              "TrafficParam must have no padding bytes");

class NetworkProperties : public ::testing::TestWithParam<TrafficParam> {};

TEST_P(NetworkProperties, ConservationAndCausality) {
  const TrafficParam p = GetParam();
  std::mt19937_64 rng(p.seed);
  std::uniform_int_distribution<int> node(0, 23);
  std::uniform_int_distribution<std::uint64_t> size(1, p.max_bytes);
  std::uniform_int_distribution<SimTime> depart(0, 100 * kPsPerUs);

  EventQueue q;
  Network net(q, Mesh(6, 4));

  std::uint64_t total_bytes = 0;
  int delivered = 0;
  SimTime last_makespan = 0;
  for (int k = 0; k < p.messages; ++k) {
    const int src = node(rng);
    const int dst = node(rng);
    const std::uint64_t bytes = size(rng);
    const SimTime t0 = depart(rng);
    total_bytes += bytes;
    const SimTime lower = t0 + net.uncontended_latency(src, dst, bytes);
    const SimTime predicted =
        net.send(src, dst, bytes, t0, [&, lower](SimTime arrival) {
          ++delivered;
          // Causality: contention can only delay, never accelerate.
          EXPECT_GE(arrival, lower);
        });
    EXPECT_GE(predicted, lower);
    last_makespan = std::max(last_makespan, predicted);
  }
  q.run();

  EXPECT_EQ(delivered, p.messages);
  EXPECT_EQ(net.stats().messages, static_cast<std::uint64_t>(p.messages));
  EXPECT_EQ(net.stats().total_bytes, total_bytes);

  // Per-link busy time cannot exceed the span of the simulation.
  const Mesh& mesh = net.mesh();
  for (int n = 0; n < mesh.node_count(); ++n) {
    const MeshCoord c = mesh.coord(n);
    const MeshCoord neighbours[] = {
        {c.x + 1, c.y}, {c.x - 1, c.y}, {c.x, c.y + 1}, {c.x, c.y - 1}};
    for (const MeshCoord& nb : neighbours) {
      if (nb.x < 0 || nb.x >= mesh.cols() || nb.y < 0 || nb.y >= mesh.rows())
        continue;
      EXPECT_LE(net.link_stats({n, mesh.node(nb)}).busy, last_makespan);
    }
  }
}

TEST_P(NetworkProperties, DeterministicReplay) {
  const TrafficParam p = GetParam();
  auto run_once = [&] {
    std::mt19937_64 rng(p.seed);
    std::uniform_int_distribution<int> node(0, 23);
    std::uniform_int_distribution<std::uint64_t> size(1, p.max_bytes);
    EventQueue q;
    Network net(q, Mesh(6, 4));
    SimTime sum = 0;
    for (int k = 0; k < p.messages; ++k) {
      const int src = node(rng);
      const int dst = node(rng);
      sum += net.send(src, dst, size(rng), 0, [](SimTime) {});
    }
    q.run();
    return sum;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Traffic, NetworkProperties,
                         ::testing::Values(TrafficParam{1, 10, 64},
                                           TrafficParam{2, 200, 64},
                                           TrafficParam{3, 200, 65536},
                                           TrafficParam{4, 1000, 1024},
                                           TrafficParam{5, 50, 1}));

TEST(NetworkProperties, HotspotQueueingGrowsWithLoad) {
  // Messages into one router: queueing time must be superlinear-ish in
  // message count (each extra message waits behind all previous).
  auto queueing_for = [](int messages) {
    EventQueue q;
    Network net(q, Mesh(6, 4));
    for (int k = 0; k < messages; ++k) net.send(0, 1, 4096, 0, [](SimTime) {});
    q.run();
    return net.stats().total_queueing;
  };
  const SimTime q10 = queueing_for(10);
  const SimTime q20 = queueing_for(20);
  EXPECT_GT(q20, 3 * q10);  // ~4x for doubled count (sum of arithmetic series)
}

}  // namespace
}  // namespace rck::noc
