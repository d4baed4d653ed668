#include "rck/noc/error.hpp"
#include "rck/noc/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace rck::noc {

std::uint64_t EventQueue::schedule_at(SimTime t, Callback fn, int target,
                                      EventClass cls) {
  if (t < now_) throw NocError("EventQueue: scheduling into the past");
  const std::uint64_t seq = next_seq_++;
  events_.emplace(std::make_pair(t, seq), Stored{target, cls, std::move(fn)});
  return seq;
}

std::size_t EventQueue::tie_count() const noexcept {
  if (events_.empty()) return 0;
  const SimTime head = events_.begin()->first.first;
  std::size_t n = 0;
  for (auto it = events_.begin();
       it != events_.end() && it->first.first == head; ++it) {
    ++n;
  }
  return n;
}

void EventQueue::tied(std::vector<TieRef>& out) const {
  out.clear();
  if (events_.empty()) return;
  const SimTime head = events_.begin()->first.first;
  for (auto it = events_.begin();
       it != events_.end() && it->first.first == head; ++it) {
    out.push_back(TieRef{it->first.second, it->second.target, it->second.cls});
  }
}

void EventQueue::run_nth(std::size_t k) {
  if (events_.empty()) throw NocError("EventQueue: run_one on empty queue");
  auto it = events_.begin();
  const SimTime head = it->first.first;
  for (std::size_t i = 0; i < k; ++i) {
    ++it;
    if (it == events_.end() || it->first.first != head) {
      throw NocError("EventQueue: run_nth index beyond the head tie group");
    }
  }
  // Unlink the entry before firing, so the callback sees the queue without it.
  Callback fn = std::move(it->second.fn);
  events_.erase(it);
  now_ = head;
  ++fired_;
  fn();
}

std::size_t EventQueue::run(SimTime until) {
  std::size_t n = 0;
  while (!events_.empty() && events_.begin()->first.first <= until) {
    run_one();
    ++n;
  }
  return n;
}

}  // namespace rck::noc
