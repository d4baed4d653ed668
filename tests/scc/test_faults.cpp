// Deterministic fault injection: crashes, message loss/corruption, storage
// stalls, and the timed-wait primitives built for surviving them.
#include "rck/scc/runtime.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rck::scc {
namespace {

using bio::Bytes;
using bio::WireReader;
using bio::WireWriter;

Bytes u32_msg(std::uint32_t v) {
  WireWriter w;
  w.u32(v);
  return w.take();
}

std::uint32_t u32_of(Bytes b) {
  WireReader r(std::move(b));
  return r.u32();
}

RuntimeConfig with_faults(FaultPlan plan) {
  RuntimeConfig cfg;
  cfg.faults = std::move(plan);
  return cfg;
}

TEST(Faults, CrashSurfacesInCoreReport) {
  FaultPlan plan;
  plan.crashes.push_back({1, 3500 * noc::kPsPerUs});
  SpmdRuntime rt(with_faults(plan));
  const noc::SimTime t = rt.run(2, [](CoreCtx& c) {
    for (int k = 0; k < 10; ++k) c.charge(noc::kPsPerMs);
  });
  // The survivor finishes its 10 ms of work; the victim is dead.
  EXPECT_EQ(t, 10 * noc::kPsPerMs);
  EXPECT_FALSE(rt.core_reports()[0].crashed);
  EXPECT_TRUE(rt.core_reports()[1].crashed);
  EXPECT_EQ(rt.core_reports()[1].crashed_at, 3500 * noc::kPsPerUs);
  // The victim stopped at an operation boundary at or after the trigger.
  EXPECT_LT(rt.core_reports()[1].finish, 10 * noc::kPsPerMs);
  EXPECT_GE(rt.core_reports()[1].finish, 3500 * noc::kPsPerUs);
}

TEST(Faults, CrashAtTimeZeroPreventsAnyExecution) {
  FaultPlan plan;
  plan.crashes.push_back({1, 0});
  SpmdRuntime rt(with_faults(plan));
  bool victim_ran = false;
  rt.run(2, [&](CoreCtx& c) {
    if (c.rank() == 1) victim_ran = true;
    c.charge(noc::kPsPerUs);
  });
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(rt.core_reports()[1].crashed);
}

TEST(Faults, StallOnDeadPeerIsFaultStallNotDeadlock) {
  FaultPlan plan;
  plan.crashes.push_back({1, noc::kPsPerMs});
  SpmdRuntime rt(with_faults(plan));
  try {
    rt.run(2, [](CoreCtx& c) {
      if (c.rank() == 0) (void)c.recv(1);  // the sender dies first
      else {
        c.charge(2 * noc::kPsPerMs);
        c.send(0, u32_msg(1));
      }
    });
    FAIL() << "expected FaultStallError";
  } catch (const FaultStallError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("crashed core(s) 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0: blocked"), std::string::npos) << msg;
  }
}

TEST(Faults, BarrierStallAfterCrashIsFaultStall) {
  FaultPlan plan;
  plan.crashes.push_back({2, noc::kPsPerUs});
  SpmdRuntime rt(with_faults(plan));
  EXPECT_THROW(rt.run(3,
                      [](CoreCtx& c) {
                        c.charge(noc::kPsPerMs);
                        c.barrier();
                      }),
               FaultStallError);
}

TEST(Faults, GenuineDeadlockStillNamesBlockedRanks) {
  SpmdRuntime rt{RuntimeConfig{}};
  try {
    rt.run(2, [](CoreCtx& c) {
      (void)c.recv(1 - c.rank());  // mutual recv, nobody sends
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 0: blocked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1: blocked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wait-src=1"), std::string::npos) << msg;
  }
}

TEST(Faults, DroppedMessageNeverArrives) {
  FaultPlan plan;
  plan.messages.push_back({FaultPlan::MessageFault::Kind::Drop, 0, 1, 0});
  SpmdRuntime rt(with_faults(plan));
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.send(1, u32_msg(7));   // dropped
      c.send(1, u32_msg(8));   // delivered
    } else {
      EXPECT_EQ(u32_of(c.recv(0)), 8u);
      EXPECT_EQ(c.recv_timeout(0, 5 * noc::kPsPerMs), std::nullopt);
    }
  });
  EXPECT_EQ(rt.network_stats().dropped, 1u);
}

TEST(Faults, CorruptedMessageArrivesMangledSameSize) {
  FaultPlan plan;
  plan.messages.push_back({FaultPlan::MessageFault::Kind::Corrupt, 0, 1, 0});
  SpmdRuntime rt(with_faults(plan));
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.send(1, u32_msg(7));
    } else {
      const Bytes got = c.recv(0);
      ASSERT_EQ(got.size(), 4u);
      EXPECT_NE(u32_of(got), 7u);  // deterministically flipped bits
    }
  });
}

TEST(Faults, DramStallMultipliesReadTime) {
  const auto read_time = [](FaultPlan plan) {
    SpmdRuntime rt(with_faults(std::move(plan)));
    return rt.run(1, [](CoreCtx& c) { c.dram_read(1 << 20); });
  };
  const noc::SimTime nominal = read_time({});
  FaultPlan stalled;
  stalled.stalls.push_back({-1, 0, noc::kPsPerSec, 4.0});
  EXPECT_EQ(read_time(stalled), 4 * nominal);
  // A window that starts after the read leaves it untouched.
  FaultPlan later;
  later.stalls.push_back({-1, noc::kPsPerSec, 2 * noc::kPsPerSec, 4.0});
  EXPECT_EQ(read_time(later), nominal);
}

TEST(Faults, RecvTimeoutExpiresAtDeadline) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv_timeout(1, 7 * noc::kPsPerMs), std::nullopt);
      EXPECT_EQ(c.now(), 7 * noc::kPsPerMs);
    }
    // rank 1 exits immediately without sending.
  });
}

TEST(Faults, RecvTimeoutDeliversWhenMessageBeatsDeadline) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      const auto got = c.recv_timeout(1, 100 * noc::kPsPerMs);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(u32_of(*got), 42u);
      EXPECT_LT(c.now(), 100 * noc::kPsPerMs);
    } else {
      c.charge(noc::kPsPerMs);
      c.send(0, u32_msg(42));
    }
  });
}

TEST(Faults, WaitAnyTimeoutReturnsMinusOneOnSilence) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(3, [](CoreCtx& c) {
    if (c.rank() == 0) {
      const std::vector<int> srcs{1, 2};
      EXPECT_EQ(c.wait_any_timeout(srcs, 3 * noc::kPsPerMs), -1);
      EXPECT_EQ(c.now(), 3 * noc::kPsPerMs);
    }
  });
}

TEST(Faults, WaitAnyTimeoutReturnsSenderWhenMessagePending) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(3, [](CoreCtx& c) {
    if (c.rank() == 0) {
      const std::vector<int> srcs{1, 2};
      EXPECT_EQ(c.wait_any_timeout(srcs, 100 * noc::kPsPerMs), 2);
      EXPECT_EQ(u32_of(c.recv(2)), 9u);
    } else if (c.rank() == 2) {
      c.send(0, u32_msg(9));
    }
  });
}

TEST(Faults, EmptyWaitAnyThrows) {
  SpmdRuntime rt{RuntimeConfig{}};
  EXPECT_THROW(rt.run(1,
                      [](CoreCtx& c) {
                        (void)c.wait_any(std::span<const int>{});
                      }),
               SimError);
  SpmdRuntime rt2{RuntimeConfig{}};
  EXPECT_THROW(rt2.run(1,
                       [](CoreCtx& c) {
                         (void)c.wait_any_timeout(std::span<const int>{},
                                                  noc::kPsPerMs);
                       }),
               SimError);
}

TEST(Faults, PeerAliveTracksCrash) {
  FaultPlan plan;
  plan.crashes.push_back({1, 5 * noc::kPsPerMs});
  SpmdRuntime rt(with_faults(plan));
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      EXPECT_TRUE(c.peer_alive(1));
      c.charge(10 * noc::kPsPerMs);
      EXPECT_FALSE(c.peer_alive(1));
    } else {
      c.charge(20 * noc::kPsPerMs);  // still mid-run when the crash lands
    }
  });
}

TEST(Faults, EventCrashFiresAfterExactEventCount) {
  // Two identical runs: the event-indexed crash must land at the same
  // simulated instant both times — that is the whole point of pinning a
  // crash to a protocol step rather than a wall-clock time.
  const auto once = [] {
    FaultPlan plan;
    plan.event_crashes.push_back({1, 5});
    SpmdRuntime rt(with_faults(plan));
    rt.run(2, [](CoreCtx& c) {
      if (c.rank() == 0) {
        for (std::uint32_t k = 0; k < 10; ++k) {
          c.charge(noc::kPsPerMs);
          c.send(1, u32_msg(k));
        }
      } else {
        for (std::uint32_t k = 0; k < 10; ++k) (void)c.recv(0);
      }
    });
    EXPECT_TRUE(rt.core_reports()[1].crashed);
    return rt.core_reports()[1].crashed_at;
  };
  const noc::SimTime a = once();
  const noc::SimTime b = once();
  EXPECT_EQ(a, b);
}

TEST(Faults, EventCrashAtZeroEventsKillsBeforeAnyWork) {
  FaultPlan plan;
  plan.event_crashes.push_back({1, 0});
  SpmdRuntime rt(with_faults(plan));
  bool victim_ran = false;
  rt.run(2, [&](CoreCtx& c) {
    if (c.rank() == 1) victim_ran = true;
    c.charge(noc::kPsPerUs);
  });
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(rt.core_reports()[1].crashed);
}

TEST(Faults, RestartRevivesACrashedCore) {
  FaultPlan plan;
  plan.crashes.push_back({1, noc::kPsPerMs});
  plan.restarts.push_back({1, 5 * noc::kPsPerMs});
  SpmdRuntime rt(with_faults(plan));
  int runs_on_rank1 = 0;
  rt.run(2, [&](CoreCtx& c) {
    if (c.rank() == 1) ++runs_on_rank1;
    c.charge(10 * noc::kPsPerMs);
  });
  // The program re-executes from the top on the revived core.
  EXPECT_EQ(runs_on_rank1, 2);
  const CoreReport& r = rt.core_reports()[1];
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_TRUE(r.crashed);  // the crash stays on record
  // Restarted at 5 ms, then 10 ms of work: the core finished this time.
  EXPECT_GE(r.finish, 15 * noc::kPsPerMs);
}

TEST(Faults, RestartWithoutACrashIsANoOp) {
  FaultPlan plan;
  plan.restarts.push_back({1, noc::kPsPerMs});
  SpmdRuntime rt(with_faults(plan));
  int runs_on_rank1 = 0;
  rt.run(2, [&](CoreCtx& c) {
    if (c.rank() == 1) ++runs_on_rank1;
    c.charge(5 * noc::kPsPerMs);
  });
  EXPECT_EQ(runs_on_rank1, 1);
  EXPECT_EQ(rt.core_reports()[1].restarts, 0u);
}

TEST(Faults, RestartedCoreStartsWithAFreshInbox) {
  FaultPlan plan;
  plan.crashes.push_back({1, noc::kPsPerMs});
  plan.restarts.push_back({1, 5 * noc::kPsPerMs});
  SpmdRuntime rt(with_faults(plan));
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.send(1, u32_msg(7));  // lands while rank 1 is dead: wiped on restart
      c.charge(20 * noc::kPsPerMs);
      c.send(1, u32_msg(9));
    } else {
      c.charge(2 * noc::kPsPerMs);  // first life dies at 1 ms mid-charge
      EXPECT_EQ(u32_of(c.recv(0)), 9u);
    }
  });
}

TEST(Faults, InvalidPlansAreRejected) {
  {
    FaultPlan plan;
    plan.crashes.push_back({5, 0});
    SpmdRuntime rt(with_faults(plan));
    EXPECT_THROW(rt.run(2, [](CoreCtx&) {}), SimError);
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({0, noc::kPsPerMs, 0, 2.0});  // ends before start
    SpmdRuntime rt(with_faults(plan));
    EXPECT_THROW(rt.run(1, [](CoreCtx&) {}), SimError);
  }
  {
    FaultPlan plan;
    plan.messages.push_back({FaultPlan::MessageFault::Kind::Drop, 0, 9, 0});
    SpmdRuntime rt(with_faults(plan));
    EXPECT_THROW(rt.run(2, [](CoreCtx&) {}), SimError);
  }
}

TEST(Faults, StallRankBelowMinusOneIsRejected) {
  // -1 is the only "every rank" spelling; any other negative rank used to
  // stall the whole chip silently.
  FaultPlan plan;
  plan.stalls.push_back({-7, 0, noc::kPsPerMs, 2.0});
  SpmdRuntime rt(with_faults(plan));
  EXPECT_THROW(rt.run(2, [](CoreCtx& c) { c.dram_read(64); }), SimError);
}

// The acceptance criterion: the same FaultPlan + program replays
// bit-for-bit, including every recovery decision visible in the reports.
TEST(Faults, DeterministicReplay) {
  const auto once = [](noc::SimTime* makespan, std::vector<CoreReport>* reports,
                       noc::NetworkStats* net) {
    FaultPlan plan;
    plan.crashes.push_back({3, 2 * noc::kPsPerMs});
    plan.messages.push_back({FaultPlan::MessageFault::Kind::Drop, 1, 0, 0});
    plan.messages.push_back({FaultPlan::MessageFault::Kind::Corrupt, 2, 0, 1});
    plan.stalls.push_back({0, 0, noc::kPsPerMs, 3.0});
    SpmdRuntime rt(with_faults(plan));
    *makespan = rt.run(4, [](CoreCtx& c) {
      if (c.rank() == 0) {
        c.dram_read(1 << 16);
        std::size_t got = 0;
        const std::vector<int> srcs{1, 2, 3};
        while (c.wait_any_timeout(srcs, 10 * noc::kPsPerMs) >= 0) {
          for (int s : srcs)
            while (c.probe(s)) {
              (void)c.recv(s);
              ++got;
            }
        }
        EXPECT_GT(got, 0u);
      } else {
        for (std::uint32_t k = 0; k < 3; ++k) {
          c.charge(noc::kPsPerMs);
          c.send(0, u32_msg(k));
        }
      }
    });
    *reports = rt.core_reports();
    *net = rt.network_stats();
  };

  noc::SimTime m1 = 0, m2 = 0;
  std::vector<CoreReport> r1, r2;
  noc::NetworkStats n1, n2;
  once(&m1, &r1, &n1);
  once(&m2, &r2, &n2);
  EXPECT_EQ(m1, m2);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].finish, r2[i].finish) << "rank " << i;
    EXPECT_EQ(r1[i].busy, r2[i].busy) << "rank " << i;
    EXPECT_EQ(r1[i].blocked, r2[i].blocked) << "rank " << i;
    EXPECT_EQ(r1[i].crashed, r2[i].crashed) << "rank " << i;
    EXPECT_EQ(r1[i].crashed_at, r2[i].crashed_at) << "rank " << i;
    EXPECT_EQ(r1[i].messages_sent, r2[i].messages_sent) << "rank " << i;
    EXPECT_EQ(r1[i].messages_received, r2[i].messages_received) << "rank " << i;
  }
  EXPECT_EQ(n1.messages, n2.messages);
  EXPECT_EQ(n1.dropped, n2.dropped);
  EXPECT_EQ(n1.total_queueing, n2.total_queueing);
}

}  // namespace
}  // namespace rck::scc
