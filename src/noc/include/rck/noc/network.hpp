// Message transport over the mesh with link contention.
//
// Model: a message of B bytes from router `src` to router `dst` follows the
// XY route. On each directed link the message occupies the link for
// (router latency + B / link bandwidth); links serialize messages in the
// order their head arrives (store-and-forward at message granularity).
// This is coarser than flit-level wormhole switching but preserves the two
// properties the paper's results depend on: per-hop latency grows with
// distance, and concurrent transfers through a shared link queue up.
// Local delivery (src == dst, i.e. two cores on one tile sharing an MPB)
// costs only the fixed software overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rck/noc/event_queue.hpp"
#include "rck/noc/mesh.hpp"
#include "rck/noc/sim_time.hpp"
#include "rck/obs/obs.hpp"

namespace rck::noc {

struct NetworkParams {
  /// Per-hop router + link traversal latency (SCC: ~4 cycles router at mesh
  /// clock; we fold link time in). 8 ns is a representative mesh-hop cost.
  SimTime hop_latency = 8 * kPsPerNs;
  /// Link bandwidth in bytes per nanosecond (SCC mesh: 16 B flits at
  /// 800 MHz-ish mesh clock => ~12.8 GB/s; 8 B/ns is conservative).
  double bytes_per_ns = 8.0;
  /// Fixed software send/receive overhead charged once per message
  /// (RCCE library entry, MPB setup).
  SimTime sw_overhead = 200 * kPsPerNs;
  /// MPB chunk size: transfers are staged through the tile's message-passing
  /// buffer in chunks; each chunk adds a round of flag handshaking.
  std::uint32_t mpb_chunk_bytes = 8192;
  SimTime per_chunk_overhead = 100 * kPsPerNs;
};

/// Per-link accumulated statistics.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimTime busy = 0;  ///< total occupied time

  bool operator==(const LinkStats&) const = default;
};

/// Whole-network statistics summary.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_hops = 0;
  SimTime total_queueing = 0;  ///< time messages spent waiting for busy links
  std::uint64_t dropped = 0;   ///< messages injected with Delivery::Drop

  bool operator==(const NetworkStats&) const = default;
};

/// What happens to a message at its destination endpoint. Drop models a
/// lossy link fault: the message transits (occupying links like any other
/// traffic) but is discarded at the destination NIC and never delivered.
enum class Delivery : std::uint8_t { Deliver, Drop };

class Network {
 public:
  Network(EventQueue& queue, Mesh mesh, NetworkParams params = {});

  const Mesh& mesh() const noexcept { return mesh_; }
  const NetworkParams& params() const noexcept { return params_; }

  /// Inject a message at simulated time `depart` (>= queue.now()).
  /// `on_delivered` fires as an event at the arrival time (never called when
  /// `disposition` is Delivery::Drop). Returns the computed arrival time.
  /// `delivery_target` tags the arrival event with the entity id whose state
  /// the delivery mutates (the receiving core's rank), which is what lets
  /// the model checker tell same-instant deliveries to distinct cores apart
  /// (EventQueue::tied); the default leaves the event untargeted, which is
  /// always safe.
  SimTime send(int src_router, int dst_router, std::uint64_t bytes, SimTime depart,
               std::function<void(SimTime)> on_delivered,
               Delivery disposition = Delivery::Deliver,
               int delivery_target = EventQueue::kUntargeted);

  /// Pure latency query: delivery time for an uncontended message.
  SimTime uncontended_latency(int src_router, int dst_router, std::uint64_t bytes) const;

  /// Time an endpoint is occupied moving `bytes` through its MPB (the
  /// per-message cost charged to the sending/receiving core, excluding
  /// in-flight mesh time).
  SimTime endpoint_occupancy(std::uint64_t bytes) const {
    return params_.sw_overhead + transfer_time(bytes);
  }

  const NetworkStats& stats() const noexcept { return stats_; }
  const LinkStats& link_stats(const Link& l) const {
    return links_[static_cast<std::size_t>(mesh_.link_index(l))];
  }

  /// Attach an observability handle (normally the recorder's system shard —
  /// send() runs under the simulation scheduler's serialization). Records
  /// per-link-class flit counters, per-link occupancy spans, message-size
  /// and queueing-delay histograms; an empty handle (the default) keeps
  /// send() entirely uninstrumented.
  void set_observer(obs::Handle h) noexcept { obs_ = h; }

  /// 16-byte mesh flits needed for `bytes` (at least 1: header flit).
  static std::uint64_t flits_of(std::uint64_t bytes) noexcept {
    return bytes == 0 ? 1 : (bytes + 15) / 16;
  }

 private:
  SimTime transfer_time(std::uint64_t bytes) const;

  EventQueue& queue_;
  Mesh mesh_;
  NetworkParams params_;
  std::vector<SimTime> link_free_;  ///< earliest time each link is available
  std::vector<LinkStats> links_;
  NetworkStats stats_;
  obs::Handle obs_;
};

}  // namespace rck::noc
