#include "rck/noc/error.hpp"
#include "rck/noc/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rck::noc {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int k = 0; k < 5; ++k) q.schedule_at(7, [&order, k] { order.push_back(k); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesNow) {
  EventQueue q;
  SimTime seen = 0;
  q.schedule_at(100, [&] {
    q.schedule_after(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RejectsSchedulingIntoPast) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), rck::noc::NocError);
}

TEST(EventQueue, RunUntilBound) {
  EventQueue q;
  int fired = 0;
  for (SimTime t : {10u, 20u, 30u, 40u}) q.schedule_at(t, [&] { ++fired; });
  EXPECT_EQ(q.run(25), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_EQ(fired, 4);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) q.schedule_after(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 9u);
  EXPECT_EQ(q.fired(), 10u);
}

TEST(EventQueue, EmptyQueueBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.run_one(), rck::noc::NocError);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  q.schedule_at(42, [] {});
  q.schedule_at(17, [] {});
  EXPECT_EQ(q.next_time(), 17u);
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  SimTime last = 0;
  bool ordered = true;
  // deterministic pseudo-random times
  std::uint64_t x = 12345;
  for (int k = 0; k < 10000; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    q.schedule_at(x % 1000000, [&] {
      if (q.now() < last) ordered = false;
      last = q.now();
    });
  }
  q.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(q.fired(), 10000u);
}

// The head tie group is what rck::mc's same-instant decisions and its
// commutation check (every member's target and EventClass) are built on.
TEST(EventQueueTies, TiedReturnsOnlyTheHeadGroupInSequenceOrder) {
  EventQueue q;
  std::vector<EventQueue::TieRef> out{EventQueue::TieRef{}};  // stale entry
  q.tied(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.tie_count(), 0u);

  q.schedule_at(20, [] {}, 2, EventClass::Delivery);
  const std::uint64_t timer = q.schedule_at(10, [] {}, 1, EventClass::Timer);
  const std::uint64_t generic = q.schedule_at(10, [] {});
  q.schedule_at(15, [] {}, 0, EventClass::Delivery);
  const std::uint64_t crash = q.schedule_at(10, [] {}, 3, EventClass::Crash);

  q.tied(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(q.tie_count(), 3u);
  EXPECT_EQ(out[0].seq, timer);
  EXPECT_EQ(out[0].target, 1);
  EXPECT_EQ(out[0].cls, EventClass::Timer);
  EXPECT_EQ(out[1].seq, generic);
  EXPECT_EQ(out[1].target, EventQueue::kUntargeted);
  EXPECT_EQ(out[1].cls, EventClass::Generic);
  EXPECT_EQ(out[2].seq, crash);
  EXPECT_EQ(out[2].target, 3);
  EXPECT_EQ(out[2].cls, EventClass::Crash);
}

TEST(EventQueueTies, RunNthFiresTheChosenMemberAndKeepsTheRestInOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<std::uint64_t> seqs;
  for (int k = 0; k < 4; ++k)
    seqs.push_back(q.schedule_at(
        7, [&order, k] { order.push_back(k); }, k, EventClass::Delivery));
  q.schedule_at(9, [&order] { order.push_back(9); });

  q.run_nth(2);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), 7u);
  EXPECT_EQ(q.fired(), 1u);
  EXPECT_EQ(q.pending(), 4u);

  std::vector<EventQueue::TieRef> out;
  q.tied(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, seqs[0]);
  EXPECT_EQ(out[1].seq, seqs[1]);
  EXPECT_EQ(out[2].seq, seqs[3]);
  EXPECT_EQ(out[2].target, 3);

  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3, 9}));
  EXPECT_EQ(q.fired(), 5u);
  EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueueTies, RunNthRejectsIndicesPastTheGroupAndEmptyQueues) {
  EventQueue q;
  EXPECT_THROW(q.run_nth(0), rck::noc::NocError);

  int fired = 0;
  q.schedule_at(5, [&fired] { ++fired; });
  q.schedule_at(5, [&fired] { ++fired; });
  q.schedule_at(6, [&fired] { ++fired; });  // not part of the head group
  EXPECT_THROW(q.run_nth(2), rck::noc::NocError);
  EXPECT_THROW(q.run_nth(17), rck::noc::NocError);
  // A rejected index leaves the queue untouched.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.fired(), 0u);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.now(), 0u);
  q.run_nth(1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.tie_count(), 1u);
}

TEST(SimTimeConversion, RoundTrips) {
  EXPECT_DOUBLE_EQ(to_seconds(kPsPerSec), 1.0);
  EXPECT_EQ(from_seconds(2.5), 2500 * kPsPerMs);
  EXPECT_EQ(cycle_ps(800e6), 1250u);
  EXPECT_EQ(cycle_ps(2.4e9), 417u);  // rounded from 416.67
}

}  // namespace
}  // namespace rck::noc
