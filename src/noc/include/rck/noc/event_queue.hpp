// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence): two events at the same
// simulated instant always fire in the order they were scheduled, so a run
// is bit-for-bit reproducible regardless of container internals.
//
// Every event optionally names a *target* — the integer id of the one entity
// (for the SCC runtime: the simulated core rank) whose state its callback
// mutates — and an EventClass describing *what* the callback does (message
// delivery, timer expiry, fault injection...). Untargeted events (target < 0)
// are assumed to touch everything. Neither field ever affects ordering; they
// exist so the model checker (rck::mc) can reason about whether two
// same-instant events commute. For the same reason the queue exposes the
// head tie group — all pending events due at the earliest instant — and
// run_nth(), which fires a chosen member of that group out of sequence
// order. Outside model checking run_one() (== run_nth(0)) preserves the
// canonical schedule-order semantics exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "rck/noc/sim_time.hpp"

namespace rck::noc {

/// What a pending event's callback does, for commutation analysis only.
enum class EventClass : std::uint8_t {
  /// Unknown effects — assumed to touch anything (the conservative default).
  Generic = 0,
  /// A message delivery into one core's inbox (the event's target).
  Delivery = 1,
  /// A blocking-timeout timer expiry on one core (the event's target).
  Timer = 2,
  /// Fault injection: core crash.
  Crash = 3,
  /// Fault injection: core restart.
  Restart = 4,
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Target id meaning "may touch any entity".
  static constexpr int kUntargeted = -1;

  /// One member of the head tie group, see tied().
  struct TieRef {
    std::uint64_t seq = 0;
    int target = kUntargeted;
    EventClass cls = EventClass::Generic;
  };

  /// Schedule `fn` at absolute time `t`. Returns the event's sequence id.
  /// `target` is the id of the one entity the callback mutates, or
  /// kUntargeted when it may touch anything; `cls` classifies the effect.
  /// Precondition: t >= now() (no scheduling into the past).
  std::uint64_t schedule_at(SimTime t, Callback fn, int target = kUntargeted,
                            EventClass cls = EventClass::Generic);

  /// Schedule `fn` `delay` after the current time.
  std::uint64_t schedule_after(SimTime delay, Callback fn,
                               int target = kUntargeted,
                               EventClass cls = EventClass::Generic) {
    return schedule_at(now_ + delay, std::move(fn), target, cls);
  }

  /// Time of the most recently fired event (0 before any event).
  SimTime now() const noexcept { return now_; }

  bool empty() const noexcept { return events_.empty(); }
  std::size_t pending() const noexcept { return events_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const noexcept { return events_.begin()->first.first; }

  /// Number of pending events due at the earliest instant (the head tie
  /// group). 0 when the queue is empty; 1 means no tie.
  std::size_t tie_count() const noexcept;

  /// Fill `out` with the head tie group in sequence order.
  void tied(std::vector<TieRef>& out) const;

  /// Fire the earliest pending event (advances now()). Precondition: !empty().
  void run_one() { run_nth(0); }

  /// Fire the k-th member (sequence order) of the head tie group. Throws
  /// NocError when the queue is empty or k >= tie_count(). Used only by the
  /// model checker to explore same-instant delivery orders; k = 0 is the
  /// canonical choice.
  void run_nth(std::size_t k);

  /// Fire events until the queue is empty or `until` is exceeded.
  /// Returns the number of events fired.
  std::size_t run(SimTime until = ~SimTime{0});

  /// Total events fired since construction.
  std::uint64_t fired() const noexcept { return fired_; }

 private:
  struct Stored {
    int target;
    EventClass cls;
    Callback fn;
  };
  // Keyed by (time, sequence): begin() is always the canonical next event,
  // and same-instant members are adjacent, which is what tie enumeration
  // walks. An ordered map keeps iteration deterministic per the repo's
  // sim-layer determinism rule.
  std::map<std::pair<SimTime, std::uint64_t>, Stored> events_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace rck::noc
