// Pinned simulated observables of raw SpmdRuntime programs.
//
// The serial scheduler is the one reference order of the simulated SCC, so
// its output on randomized raw programs is pinned here byte for byte. Each
// digest is an FNV-1a hash over everything a run reports about the simulated
// execution — the makespan, every CoreReport, the per-core activity spans of
// the run's obs recorder, the network statistics and the fired-event count —
// and every program runs twice. The farms, random plans and skewed section
// streams run again at host widths above one, which must not move a byte.
// The programs mix what the farm drivers never exercise on their own:
// barrier-separated rings and gathers, timed waits and probes, runtime DVFS,
// skewed streams of tiny compute sections, fault plans, and the race
// checker's seeded schedule perturbation.
//
// The digests were recorded by building this file against the runtime that
// still kept its own activity trace and copied it into the recorder's core
// lanes after each run; the two tied_gather pins were recorded later,
// against the runtime whose recorder is the only record of core activity.
// The spans are hashed in the recorder's canonical (time, shard, sequence)
// order, so a schedule perturbation that only reorders same-instant work on
// different cores leaves the digest alone: the chk-perturbed mini_farm pins
// the same value as the unperturbed one. A perturbation shows only where
// the reordered ties change what the cores or the network do, as in
// tied_gather, whose perturbed and unperturbed pins differ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rck/mc/mc.hpp"
#include "rck/noc/network.hpp"
#include "rck/obs/obs.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

// ---- Digest ----------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  template <class T>
  void pod(const T& v) {
    h = mc::fnv1a(&v, sizeof v, h);
  }
};

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The activity spans of a collecting recorder in merged_trace() order:
/// (shard, kind, start, end), kind 0-5 in Compute, Send, Recv, Poll, Dram,
/// Blocked order.
struct Activity {
  int shard = 0;
  std::uint8_t kind = 0;
  noc::SimTime start = 0;
  noc::SimTime end = 0;
};

std::vector<Activity> activity_spans(const obs::Recorder& rec) {
  const obs::Std& ids = rec.std_ids();
  const std::array<obs::NameId, 6> kinds = {ids.n_compute, ids.n_send, ids.n_recv,
                                            ids.n_poll,    ids.n_dram, ids.n_blocked};
  std::vector<Activity> out;
  for (const obs::Recorder::MergedRecord& m : rec.merged_trace()) {
    if (m.shard >= rec.core_shards() || m.rec.ph != obs::Ph::Span ||
        m.rec.lane != obs::Lane::Core)
      continue;
    for (std::size_t k = 0; k < kinds.size(); ++k)
      if (m.rec.name == kinds[k])
        out.push_back({m.shard, static_cast<std::uint8_t>(k), m.rec.ts,
                       m.rec.ts + m.rec.dur});
  }
  return out;
}

/// Run `program` on a runtime built from `cfg` with a collecting recorder
/// and digest every simulated observable.
std::string digest(int nranks, const Program& program, RuntimeConfig cfg) {
  cfg.obs = obs::Config::collect();
  SpmdRuntime rt(cfg);
  Fnv f;
  f.pod(rt.run(nranks, program));
  f.pod(rt.core_reports().size());
  for (const CoreReport& c : rt.core_reports()) {
    f.pod(c.finish);
    f.pod(c.busy);
    f.pod(c.blocked);
    f.pod(c.compute_cycles);
    f.pod(c.messages_sent);
    f.pod(c.messages_received);
    f.pod(c.bytes_sent);
    f.pod(c.bytes_received);
    f.pod(c.crashed);
    f.pod(c.crashed_at);
    f.pod(c.restarts);
  }
  const std::vector<Activity> spans = activity_spans(*rt.obs());
  f.pod(spans.size());
  for (const Activity& a : spans) {
    f.pod(a.shard);
    f.pod(a.kind);
    f.pod(a.start);
    f.pod(a.end);
  }
  const noc::NetworkStats& n = rt.network_stats();
  f.pod(n.messages);
  f.pod(n.total_bytes);
  f.pod(n.total_hops);
  f.pod(n.total_queueing);
  f.pod(n.dropped);
  f.pod(rt.events_fired());
  return hex(f.h);
}

// ---- Programs ----------------------------------------------------------------

// A little master-slaves round: rank 0 hands each slave `rounds` payloads,
// slaves "compute" an amount derived from the payload and answer; a barrier
// closes each round.
Program mini_farm(int rounds) {
  return [rounds](CoreCtx& ctx) {
    const int n = ctx.nranks();
    for (int r = 0; r < rounds; ++r) {
      if (ctx.rank() == 0) {
        for (int dst = 1; dst < n; ++dst) {
          bio::Bytes job{static_cast<std::byte>(dst), static_cast<std::byte>(r)};
          ctx.send(dst, job);
        }
        std::vector<int> srcs;
        for (int src = 1; src < n; ++src) srcs.push_back(src);
        for (int k = 1; k < n; ++k) {
          const int who = ctx.wait_any(srcs);
          (void)ctx.recv(who);
        }
      } else {
        const bio::Bytes job = ctx.recv(0);
        // Uneven compute so cores drift apart in virtual time.
        const std::uint64_t work =
            50'000 + 20'000 * static_cast<std::uint64_t>(job[0]) +
            7'000 * static_cast<std::uint64_t>(job[1]);
        ctx.charge_cycles(work);
        ctx.dram_read(4096 * static_cast<std::uint64_t>(ctx.rank()));
        ctx.send(0, bio::Bytes{job[0]});
      }
      ctx.barrier();
    }
  };
}

// A master that polls slaves it still believes alive, with timeouts so a
// dead peer never wedges it; run under a crash on rank 3 and a DRAM stall
// on rank 2.
Program fault_farm() {
  return [](CoreCtx& ctx) {
    const int n = ctx.nranks();
    if (ctx.rank() == 0) {
      for (int r = 0; r < 6; ++r) {
        for (int dst = 1; dst < n; ++dst) {
          if (!ctx.peer_alive(dst)) continue;
          ctx.send(dst, bio::Bytes{static_cast<std::byte>(r)});
        }
        for (int src = 1; src < n; ++src) {
          if (!ctx.peer_alive(src)) continue;
          (void)ctx.recv_timeout(src, 2 * noc::kPsPerMs);
        }
      }
    } else {
      for (int r = 0; r < 6; ++r) {
        const auto job = ctx.recv_timeout(0, 4 * noc::kPsPerMs);
        if (!job) return;
        ctx.charge_cycles(80'000 + 11'000 * static_cast<std::uint64_t>(ctx.rank()));
        ctx.dram_read(32768);
        ctx.send(0, bio::Bytes{(*job)[0]});
      }
    }
  };
}

RuntimeConfig fault_cfg() {
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({3, noc::kPsPerMs / 2});
  cfg.faults.stalls.push_back({2, 0, noc::kPsPerMs, 8.0});
  return cfg;
}

// Compute/comm mixes with timers, probes and runtime DVFS: the master
// gathers through wait_any_timeout, re-arming after every deadline; slaves
// probe, send, and always time out waiting for an answer that never comes.
Program timed_mix(std::uint64_t seed, int rounds) {
  return [seed, rounds](CoreCtx& ctx) {
    const int n = ctx.nranks();
    const int me = ctx.rank();
    std::mt19937_64 rng(seed ^ (0x9E3779B97F4A7C15ULL *
                                static_cast<std::uint64_t>(me + 1)));
    for (int r = 0; r < rounds; ++r) {
      ctx.charge_cycles(1'000 + rng() % 50'000);
      if (rng() % 4 == 0)
        ctx.set_freq_scale(0.5 + static_cast<double>(rng() % 150) / 100.0);
      if (me == 0) {
        std::vector<int> srcs;
        for (int k = 1; k < n; ++k) srcs.push_back(k);
        int got = 0;
        while (got < n - 1) {
          const int who = ctx.wait_any_timeout(srcs, 50 * noc::kPsPerUs);
          if (who < 0) {  // deadline fired: spin a little and re-arm
            ctx.charge_cycles(500);
            continue;
          }
          (void)ctx.recv(who);
          ++got;
        }
      } else {
        ctx.charge_cycles(rng() % 100'000);
        (void)ctx.probe(0);
        ctx.send(0, bio::Bytes(1 + rng() % 64, std::byte{0x5A}));
        // The master never sends back: this always rides the timer path.
        EXPECT_FALSE(
            ctx.recv_timeout(0, (5 + rng() % 20) * noc::kPsPerUs).has_value());
      }
      ctx.barrier();
    }
  };
}

// Random barrier-separated rounds of compute, DRAM reads, ring exchanges
// and master gathers. The shape is drawn from a seeded RNG before the run.
struct RoundPlan {
  int shift = 1;                        ///< ring offset for the exchange
  bool gather = false;                  ///< slaves report to rank 0 after
  std::vector<std::uint64_t> cycles;    ///< per-rank compute this round
  std::vector<std::uint32_t> dram;      ///< per-rank DRAM bytes (0 = skip)
  std::vector<std::uint32_t> payload;   ///< per-rank ring payload size
};

struct ProgramPlan {
  int nranks = 2;
  std::vector<RoundPlan> rounds;
};

ProgramPlan make_plan(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ProgramPlan plan;
  plan.nranks = 2 + static_cast<int>(rng() % 7);  // 2..8 cores
  const int nrounds = 2 + static_cast<int>(rng() % 4);
  for (int r = 0; r < nrounds; ++r) {
    RoundPlan round;
    round.shift = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                   plan.nranks - 1));
    round.gather = (rng() % 3) == 0;
    for (int k = 0; k < plan.nranks; ++k) {
      round.cycles.push_back(10'000 + rng() % 200'000);
      round.dram.push_back((rng() % 2) ? static_cast<std::uint32_t>(
                                             256 + rng() % 65536)
                                       : 0u);
      round.payload.push_back(static_cast<std::uint32_t>(1 + rng() % 512));
    }
    plan.rounds.push_back(std::move(round));
  }
  return plan;
}

// Interpret the plan as an SPMD program. Sends precede receives within a
// round (send is asynchronous), so every ring exchange is deadlock-free.
Program interpret(const ProgramPlan& plan) {
  return [plan](CoreCtx& ctx) {
    const int n = ctx.nranks();
    const int me = ctx.rank();
    for (const RoundPlan& round : plan.rounds) {
      ctx.charge_cycles(round.cycles[static_cast<std::size_t>(me)]);
      if (const auto bytes = round.dram[static_cast<std::size_t>(me)])
        ctx.dram_read(bytes);

      const int dst = (me + round.shift) % n;
      const int src = (me - round.shift % n + n) % n;
      bio::Bytes payload(round.payload[static_cast<std::size_t>(me)],
                         static_cast<std::byte>(me));
      ctx.send(dst, payload);
      const bio::Bytes got = ctx.recv(src);
      ASSERT_EQ(got.size(), round.payload[static_cast<std::size_t>(src)]);
      ctx.charge_cycles(500 * got.size());

      if (round.gather) {
        if (me == 0) {
          std::vector<int> srcs;
          for (int k = 1; k < n; ++k) srcs.push_back(k);
          for (int k = 1; k < n; ++k) {
            const int who = ctx.wait_any(srcs);
            (void)ctx.recv(who);
          }
        } else {
          ctx.send(0, bio::Bytes{static_cast<std::byte>(me)});
        }
      }
      ctx.barrier();
    }
  };
}

// Many tiny compute sections with heavily skewed per-core durations,
// punctuated by rare ring traffic: thousands of scheduler round-trips per
// run, most of them same-instant-free.
Program steal_heavy(std::uint64_t seed, int sections) {
  return [seed, sections](CoreCtx& ctx) {
    const int n = ctx.nranks();
    const int me = ctx.rank();
    // Deterministic per-core skew: cores 0, 3, 6, ... get 32x sections.
    const std::uint64_t skew = (me % 3 == 0) ? 32 : 1;
    std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(me));
    for (int s = 0; s < sections; ++s) {
      ctx.charge_cycles(200 + rng() % 800 * skew);
      if (rng() % 16 == 0) ctx.dram_read(64 + rng() % 4096);
      if (s % (sections / 4 + 1) == (me % (sections / 4 + 1))) {
        ctx.send((me + 1) % n, bio::Bytes{static_cast<std::byte>(me)});
        (void)ctx.recv((me - 1 + n) % n);
      }
    }
    ctx.barrier();
  };
}

// Every core leaves a barrier at the same instant and sends rank 0 one
// payload, 64 B from even ranks and 2,112 B from odd ones. The order in
// which the tied cores inject decides which messages queue behind which on
// the links into rank 0, so a schedule perturbation that reorders the tie
// moves the network's queueing and the cores' finish times.
Program tied_gather() {
  return [](CoreCtx& ctx) {
    ctx.barrier();
    if (ctx.rank() == 0) {
      for (int src = 1; src < ctx.nranks(); ++src) (void)ctx.recv(src);
    } else {
      ctx.send(0, bio::Bytes(ctx.rank() % 2 == 0 ? 64 : 2112, std::byte{0}));
    }
  };
}

RuntimeConfig chk_perturbed_cfg() {
  RuntimeConfig cfg;
  cfg.chk.enable = true;
  cfg.chk.schedule_seed = 0x5cc5cc5cu;
  return cfg;
}

// ---- Pinned table ----------------------------------------------------------

struct Case {
  std::string name;
  std::string digest;  ///< recorded at host width 1 (see the file comment)
  int nranks;
  Program program;
  RuntimeConfig cfg;
};

/// Run `c` `runs` times with `RuntimeConfig::host.threads = width` and
/// require every run to reproduce the pinned digest.
void expect_pinned(Case c, int width = 1, int runs = 2) {
  c.cfg.host.threads = width;
  for (int run = 0; run < runs; ++run)
    EXPECT_EQ(digest(c.nranks, c.program, c.cfg), c.digest)
        << c.name << " width " << width << " run " << run;
}

/// mini_farm on 6, 5 and 4 ranks, with 4, 3 and 2 rounds.
Case mini_farm_case(int nranks) {
  static const std::map<int, std::pair<int, std::string>> pinned = {
      {6, {4, "3df0df472f081c8c"}},
      {5, {3, "d490da59a013bf00"}},
      {4, {2, "5ba4f14b182af78d"}},
  };
  const auto& [rounds, d] = pinned.at(nranks);
  return {"mini_farm " + std::to_string(nranks) + "x" + std::to_string(rounds),
          d, nranks, mini_farm(rounds), {}};
}

/// make_plan seeds 1-24, 99 and 1234.
const std::map<std::uint64_t, std::string>& plan_digests() {
  static const std::map<std::uint64_t, std::string> pinned = {
      {1, "c716bcb90da91cf0"},
      {2, "d21a9aba93ac5e22"},
      {3, "aab01ae102424eec"},
      {4, "6be2771095ec0a18"},
      {5, "faead41b87433d03"},
      {6, "ea55949e4eba50f7"},
      {7, "a4c2a5941dfe8978"},
      {8, "f1a524b3017424a9"},
      {9, "fdcc7ad872c8adb8"},
      {10, "73514561855fd673"},
      {11, "dbcb214acdeb1222"},
      {12, "99842502be19239e"},
      {13, "90a7bfd043708a66"},
      {14, "d1afe8f7bef53dcf"},
      {15, "cdaac6127cea4725"},
      {16, "37a4062984836f2f"},
      {17, "10bfd6b0524e9d36"},
      {18, "2ede82cac1d6193d"},
      {19, "7885b24a4f455bd9"},
      {20, "21b950f8a32130c8"},
      {21, "c78865f4f816f31c"},
      {22, "2cf1cc7757681ebf"},
      {23, "f6b26442b29e5dfc"},
      {24, "cdf3b020d0f7f41d"},
      {99, "f512d29de492910c"},
      {1234, "2d53d5db3f0b145f"},
  };
  return pinned;
}

Case plan_case(std::uint64_t seed) {
  const ProgramPlan plan = make_plan(seed);
  return {"make_plan " + std::to_string(seed), plan_digests().at(seed),
          plan.nranks, interpret(plan), {}};
}

/// steal_heavy seeds 3, 17 and 451 on 9 ranks x 96 sections, and seed 29 on
/// 12 ranks x 128 sections.
Case steal_heavy_case(std::uint64_t seed) {
  struct Shape {
    int nranks;
    int sections;
    std::string digest;
  };
  static const std::map<std::uint64_t, Shape> pinned = {
      {3, {9, 96, "9942ccc8435de679"}},
      {17, {9, 96, "98db08d95c0f89d6"}},
      {451, {9, 96, "1568687050fad30c"}},
      {29, {12, 128, "597b7d2b98666a04"}},
  };
  const Shape& s = pinned.at(seed);
  return {"steal_heavy " + std::to_string(seed), s.digest, s.nranks,
          steal_heavy(seed, s.sections), {}};
}

TEST(SerialReplay, MiniFarmsMatchPinnedDigests) {
  for (const int nranks : {6, 5, 4}) expect_pinned(mini_farm_case(nranks));
}

/// fault_farm on 5 ranks under fault_cfg.
Case fault_farm_case() {
  return {"fault_farm 5", "f7dfe29606412295", 5, fault_farm(), fault_cfg()};
}

TEST(SerialReplay, FaultPlanMatchesPinnedDigest) {
  // The digest covers CoreReport::crashed, so it also pins that the crash
  // fired.
  expect_pinned(fault_farm_case());
}

TEST(SerialReplay, TimedCommMixesMatchPinnedDigests) {
  const std::vector<std::pair<std::uint64_t, std::string>> pinned = {
      {11, "e94ce38e445958a3"},
      {202, "158476125860a17a"},
      {3003, "a5a32a41e3bcbd9d"},
  };
  for (const auto& [seed, d] : pinned) {
    const int nranks = 3 + static_cast<int>(seed % 6);
    expect_pinned({"timed_mix " + std::to_string(seed), d, nranks,
                   timed_mix(seed, 4), {}});
  }
}

TEST(SerialReplay, RandomPlansMatchPinnedDigests) {
  for (const auto& entry : plan_digests()) expect_pinned(plan_case(entry.first));
}

TEST(SerialReplay, StealHeavyMatchesPinnedDigests) {
  for (const std::uint64_t seed : {3u, 17u, 451u, 29u})
    expect_pinned(steal_heavy_case(seed));
}

TEST(SerialReplay, ChkPerturbedScheduleMatchesPinnedDigest) {
  // mini_farm's master sends one job at a time, so only its barrier exits
  // tie, and the perturbed run pins the unperturbed value.
  expect_pinned(
      {"mini_farm 6x4 chk", "3df0df472f081c8c", 6, mini_farm(4), chk_perturbed_cfg()});
  // tied_gather's sends tie, so the perturbation shows in the digest.
  const Case plain{"tied_gather 8", "887f0d7de1fb61dd", 8, tied_gather(), {}};
  const Case perturbed{"tied_gather 8 chk", "77c6435b04aeb13e", 8, tied_gather(),
                       chk_perturbed_cfg()};
  expect_pinned(plain);
  expect_pinned(perturbed);
  EXPECT_NE(plain.digest, perturbed.digest);
}

// ---- Host width ------------------------------------------------------------
//
// RuntimeConfig::host sizes only the farm drivers' pre-execution pool; a raw
// program always simulates on the serial scheduler. So every pinned program
// must reproduce its digest at any host width, run after run. These suites
// keep the names they had when they compared the serial scheduler with a
// host-parallel one; "serial" is now the pinned digest.

TEST(HostParallelDeterminism, MiniFarmMatchesSerialBitForBit) {
  for (const int nranks : {6, 5, 4}) expect_pinned(mini_farm_case(nranks), 4);
}

TEST(HostParallelDeterminism, ReplayTwiceIsIdenticalInEachMode) {
  for (const int width : {1, 4}) expect_pinned(mini_farm_case(5), width);
}

TEST(HostParallelStress, RandomProgramsMatchSerial) {
  for (const auto& entry : plan_digests())
    expect_pinned(plan_case(entry.first), 4);
}

TEST(HostParallelStress, WiderThreadCountsAgreeToo) {
  for (const int width : {2, 4, 16}) expect_pinned(plan_case(99), width);
}

TEST(HostParallelStress, HardwareConvenienceMatchesSerial) {
  const HostParallelism host = HostParallelism::hardware();
  EXPECT_GE(host.threads, 1);
  expect_pinned(plan_case(7), host.threads);
}

TEST(HostParallelStress, RepeatedRunsUnderParallelAreStable) {
  expect_pinned(plan_case(1234), 4, 6);
}

TEST(HostParallelStress, StealHeavyTinySectionsMatchSerial) {
  for (const std::uint64_t seed : {3u, 17u, 451u})
    for (const int width : {2, 4, 8}) expect_pinned(steal_heavy_case(seed), width);
}

TEST(HostParallelStress, StealHeavyRepeatedRunsAreStable) {
  expect_pinned(steal_heavy_case(29), 4, 5);
}

// ---- Two runtimes at once -------------------------------------------------
//
// Each SpmdRuntime runs its cores as fibers on the thread that called
// run(); the scheduler context and the exception state it swaps are that
// thread's own. Two runtimes driven at once from two host threads must
// therefore each reproduce their single-threaded digests.

TEST(SerialReplay, TwoRuntimesOnTwoHostThreadsMatchPinnedDigests) {
  // The fault plan unwinds a crashed core on one thread while the other
  // thread's runtimes switch fibers.
  const std::vector<std::vector<Case>> lanes = {
      {plan_case(1), fault_farm_case(), plan_case(2), steal_heavy_case(3)},
      {mini_farm_case(6), plan_case(3), steal_heavy_case(17), plan_case(4)},
  };
  std::vector<std::vector<std::string>> got(lanes.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < lanes.size(); ++t)
      threads.emplace_back([&lanes, &got, t] {
        for (const Case& c : lanes[t]) {
          try {
            got[t].push_back(digest(c.nranks, c.program, c.cfg));
          } catch (const std::exception& e) {
            got[t].push_back(std::string("threw: ") + e.what());
          }
        }
      });
  }
  for (std::size_t t = 0; t < lanes.size(); ++t)
    for (std::size_t k = 0; k < lanes[t].size(); ++k)
      EXPECT_EQ(got[t][k], lanes[t][k].digest) << lanes[t][k].name << " on thread " << t;
}

}  // namespace
}  // namespace rck::scc
