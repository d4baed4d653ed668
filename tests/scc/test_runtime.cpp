#include "rck/scc/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

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

TEST(Runtime, SingleCoreChargesTime) {
  SpmdRuntime rt{RuntimeConfig{}};
  const noc::SimTime t = rt.run(1, [](CoreCtx& c) {
    c.charge(5 * noc::kPsPerMs);
    c.charge(3 * noc::kPsPerMs);
  });
  EXPECT_EQ(t, 8 * noc::kPsPerMs);
  EXPECT_EQ(rt.core_reports()[0].busy, 8 * noc::kPsPerMs);
}

TEST(Runtime, ChargeCyclesUsesCoreModel) {
  RuntimeConfig cfg;  // P54C at 800 MHz
  SpmdRuntime rt(cfg);
  const noc::SimTime t = rt.run(1, [](CoreCtx& c) { c.charge_cycles(800'000'000); });
  EXPECT_EQ(t, noc::kPsPerSec);
  EXPECT_EQ(rt.core_reports()[0].compute_cycles, 800'000'000u);
}

TEST(Runtime, PingPong) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.send(1, u32_msg(41));
      EXPECT_EQ(u32_of(c.recv(1)), 42u);
    } else {
      const std::uint32_t v = u32_of(c.recv(0));
      c.send(0, u32_msg(v + 1));
    }
  });
}

TEST(Runtime, MessageLatencyAdvancesReceiverClock) {
  SpmdRuntime rt{RuntimeConfig{}};
  noc::SimTime recv_done = 0;
  rt.run(2, [&](CoreCtx& c) {
    if (c.rank() == 0) {
      c.charge(noc::kPsPerMs);  // send at t = 1 ms
      c.send(1, u32_msg(1));
    } else {
      (void)c.recv(0);
      recv_done = c.now();
    }
  });
  EXPECT_GT(recv_done, noc::kPsPerMs);  // can't receive before it was sent
}

TEST(Runtime, FifoPerSenderOrdering) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      for (std::uint32_t k = 0; k < 10; ++k) c.send(1, u32_msg(k));
    } else {
      for (std::uint32_t k = 0; k < 10; ++k) EXPECT_EQ(u32_of(c.recv(0)), k);
    }
  });
}

TEST(Runtime, ProbeSeesPendingMessage) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.charge(noc::kPsPerMs);  // send only at t = 1 ms
      c.send(1, u32_msg(7));
    } else {
      EXPECT_FALSE(c.probe(0));  // probes land well before 1 ms
      c.charge(2 * noc::kPsPerMs);  // let the message arrive
      EXPECT_TRUE(c.probe(0));
      (void)c.recv(0);
      EXPECT_FALSE(c.probe(0));
    }
  });
}

TEST(Runtime, WaitAnyRoundRobinFairness) {
  // Three senders each send one message "simultaneously"; a master calling
  // wait_any repeatedly must drain all three, each exactly once.
  SpmdRuntime rt{RuntimeConfig{}};
  std::vector<int> served;
  rt.run(4, [&](CoreCtx& c) {
    if (c.rank() == 0) {
      const std::vector<int> srcs{1, 2, 3};
      for (int k = 0; k < 3; ++k) {
        const int who = c.wait_any(srcs);
        (void)c.recv(who);
        served.push_back(who);
      }
    } else {
      c.send(0, u32_msg(static_cast<std::uint32_t>(c.rank())));
    }
  });
  std::vector<int> sorted = served;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3}));
}

TEST(Runtime, BarrierSynchronizesClocks) {
  SpmdRuntime rt{RuntimeConfig{}};
  std::vector<noc::SimTime> after(3);
  rt.run(3, [&](CoreCtx& c) {
    c.charge(static_cast<noc::SimTime>(c.rank() + 1) * noc::kPsPerMs);
    c.barrier();
    after[static_cast<std::size_t>(c.rank())] = c.now();
  });
  // Everyone leaves the barrier at the same instant: the slowest arrival
  // (3 ms) plus the barrier cost.
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(after[1], after[2]);
  EXPECT_GE(after[0], 3 * noc::kPsPerMs);
}

TEST(Runtime, TwoBarriersInARow) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(4, [](CoreCtx& c) {
    c.charge(static_cast<noc::SimTime>(c.rank()) * noc::kPsPerUs);
    c.barrier();
    const noc::SimTime t1 = c.now();
    c.barrier();
    EXPECT_GT(c.now(), t1);
  });
}

TEST(Runtime, DeadlockDetected) {
  SpmdRuntime rt{RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [](CoreCtx& c) {
                        if (c.rank() == 1) (void)c.recv(0);  // never sent
                      }),
               DeadlockError);
}

TEST(Runtime, DeadlockMessageNamesBlockedCore) {
  SpmdRuntime rt{RuntimeConfig{}};
  try {
    rt.run(2, [](CoreCtx& c) {
      if (c.rank() == 1) (void)c.recv(0);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos);
    EXPECT_NE(msg.find("wait-src=0"), std::string::npos);
  }
}

TEST(Runtime, ProgramExceptionPropagates) {
  SpmdRuntime rt{RuntimeConfig{}};
  EXPECT_THROW(rt.run(3,
                      [](CoreCtx& c) {
                        if (c.rank() == 2) throw std::runtime_error("boom");
                        if (c.rank() == 1) (void)c.recv(0);  // would deadlock
                      }),
               std::runtime_error);
}

TEST(Runtime, SingleUse) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(1, [](CoreCtx&) {});
  EXPECT_THROW(rt.run(1, [](CoreCtx&) {}), SimError);
}

TEST(Runtime, RankValidation) {
  SpmdRuntime rt{RuntimeConfig{}};
  EXPECT_THROW(rt.run(0, [](CoreCtx&) {}), SimError);
  SpmdRuntime rt2{RuntimeConfig{}};
  EXPECT_THROW(rt2.run(49, [](CoreCtx&) {}), SimError);  // 48-core chip
}

TEST(Runtime, SendToBadRankThrows) {
  SpmdRuntime rt{RuntimeConfig{}};
  EXPECT_THROW(rt.run(2,
                      [](CoreCtx& c) {
                        if (c.rank() == 0) c.send(5, {});
                        else (void)c.recv(0);
                      }),
               SimError);
}

TEST(Runtime, DeterministicMakespanAndReports) {
  auto run_once = [] {
    SpmdRuntime rt{RuntimeConfig{}};
    const noc::SimTime t = rt.run(8, [](CoreCtx& c) {
      if (c.rank() == 0) {
        std::vector<int> slaves(7);
        std::iota(slaves.begin(), slaves.end(), 1);
        for (int s : slaves) c.send(s, u32_msg(static_cast<std::uint32_t>(s)));
        for (int k = 0; k < 7; ++k) {
          const int who = c.wait_any(slaves);
          (void)c.recv(who);
        }
      } else {
        const std::uint32_t v = u32_of(c.recv(0));
        c.charge(static_cast<noc::SimTime>(v) * noc::kPsPerMs);
        c.send(0, u32_msg(v));
      }
    });
    return t;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, FortyEightCores) {
  // Full chip: everyone barriers then reports to rank 0.
  SpmdRuntime rt{RuntimeConfig{}};
  int received = 0;
  rt.run(48, [&](CoreCtx& c) {
    c.barrier();
    if (c.rank() == 0) {
      std::vector<int> others(47);
      std::iota(others.begin(), others.end(), 1);
      for (int k = 0; k < 47; ++k) {
        const int who = c.wait_any(others);
        (void)c.recv(who);
        ++received;
      }
    } else {
      c.send(0, u32_msg(1));
    }
  });
  EXPECT_EQ(received, 47);
}

TEST(Runtime, BlockedTimeAccounted) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.charge(10 * noc::kPsPerMs);
      c.send(1, u32_msg(0));
    } else {
      (void)c.recv(0);  // blocked ~10 ms
    }
  });
  EXPECT_GE(rt.core_reports()[1].blocked, 9 * noc::kPsPerMs);
}

TEST(Runtime, DramReadChargesTime) {
  SpmdRuntime rt{RuntimeConfig{}};
  const noc::SimTime t = rt.run(1, [](CoreCtx& c) { c.dram_read(1 << 20); });
  EXPECT_GT(t, 0u);
}

TEST(Runtime, NetworkStatsExposed) {
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) c.send(1, Bytes(100));
    else (void)c.recv(0);
  });
  EXPECT_EQ(rt.network_stats().messages, 1u);
  EXPECT_GT(rt.network_stats().total_bytes, 100u);  // payload + header
}

// ---- Fiber contract ----------------------------------------------------------
//
// Every core's program runs as a fiber on the thread that called run(), and
// the cores interleave only at CoreCtx operations. These pin what programs
// may rely on: per-core exception state, unwinding on every failure path,
// and the thread they run on.

/// Each core throws, catches, and blocks inside its handler (core r for
/// (r + 1) * 10 us), then reads the caught exception: once through the
/// reference, once by rethrowing it. Core 0's handler ends first, so with a
/// caught-exception stack shared between the cores it would pop and free
/// core 1's exception while core 1 still uses it.
Program throw_and_park_in_handler(std::array<std::string, 2>& what,
                                  std::array<std::string, 2>& rethrown) {
  return [&what, &rethrown](CoreCtx& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    try {
      throw std::runtime_error("core " + std::to_string(r));
    } catch (const std::runtime_error& e) {
      c.charge(static_cast<noc::SimTime>(r + 1) * 10 * noc::kPsPerUs);
      what[r] = e.what();
      try {
        throw;
      } catch (const std::runtime_error& again) {
        rethrown[r] = again.what();
      }
    }
  };
}

TEST(Runtime, CaughtExceptionsSurviveInterleavedHandlers) {
  std::array<std::string, 2> what, rethrown;
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, throw_and_park_in_handler(what, rethrown));
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(what[r], "core " + std::to_string(r));
    EXPECT_EQ(rethrown[r], "core " + std::to_string(r));
  }
}

TEST(Runtime, CrashWhileParkedInAHandlerLeavesPeersExceptionIntact) {
  // Core 0 is killed at 5 us while both cores are parked in their handlers:
  // its unwind ends its own handler, and core 1 still reads its exception.
  std::array<std::string, 2> what, rethrown;
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({0, 5 * noc::kPsPerUs});
  SpmdRuntime rt(cfg);
  rt.run(2, throw_and_park_in_handler(what, rethrown));
  EXPECT_TRUE(rt.core_reports()[0].crashed);
  EXPECT_EQ(what[0], "");
  EXPECT_EQ(what[1], "core 1");
  EXPECT_EQ(rethrown[1], "core 1");
}

TEST(Runtime, EveryProgramRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(6);
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(6, [&](CoreCtx& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    c.charge(static_cast<noc::SimTime>(r) * noc::kPsPerUs);
    if (c.rank() == 0) {
      for (int dst = 1; dst < c.nranks(); ++dst) c.send(dst, u32_msg(0));
    } else {
      (void)c.recv(0);
    }
    c.barrier();
    ran_on[r] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

/// Counts its own destruction: a stand-in for a program's RAII state.
struct UnwindProbe {
  int& destroyed;
  ~UnwindProbe() { ++destroyed; }
};

TEST(Runtime, ParkedCoresUnwindBeforeAPeersExceptionIsRethrown) {
  // Ranks 1-3 park in recv, barrier and recv_timeout; rank 0 then throws.
  // Each parked core's stack must be unwound (its UnwindProbe destroyed)
  // by the time run() rethrows.
  int destroyed = 0;
  SpmdRuntime rt{RuntimeConfig{}};
  try {
    rt.run(4, [&destroyed](CoreCtx& c) {
      const UnwindProbe probe{destroyed};
      switch (c.rank()) {
        case 0:
          c.charge(noc::kPsPerMs);
          throw std::runtime_error("boom");
        case 1: (void)c.recv(0); break;
        case 2: c.barrier(); break;
        default: (void)c.recv_timeout(0, noc::kPsPerSec); break;
      }
    });
    FAIL() << "expected the program's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_EQ(destroyed, 4);  // the thrower's probe and three parked ones
  }
}

TEST(Runtime, ParkedCoresUnwindBeforeDeadlockIsReported) {
  // Ranks 0 and 1 wait on each other, rank 2 in a barrier, rank 3 in
  // wait_any on the first two: a deadlock with every core parked.
  int destroyed = 0;
  SpmdRuntime rt{RuntimeConfig{}};
  try {
    rt.run(4, [&destroyed](CoreCtx& c) {
      const UnwindProbe probe{destroyed};
      switch (c.rank()) {
        case 0: (void)c.recv(1); break;
        case 1: (void)c.recv(0); break;
        case 2: c.barrier(); break;
        default: {
          const std::array<int, 2> srcs{0, 1};
          (void)c.wait_any(srcs);
          break;
        }
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError&) {
    EXPECT_EQ(destroyed, 4);
  }
}

}  // namespace
}  // namespace rck::scc
