#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "rck/scc/gantt.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

RuntimeConfig traced_config() {
  RuntimeConfig cfg;
  cfg.obs = obs::Config::collect();
  return cfg;
}

/// One activity span from a core's obs shard.
struct Activity {
  int rank = 0;
  char kind = '?';  ///< gantt_char of its name
  noc::SimTime start = 0;
  noc::SimTime end = 0;
};

/// The activity spans the runtime left in `rt`'s recorder, shard by shard in
/// append order.
std::vector<Activity> activity(const SpmdRuntime& rt) {
  const obs::Recorder& rec = *rt.obs();
  std::vector<Activity> out;
  for (int s = 0; s < rec.core_shards(); ++s) {
    for (const obs::TraceRecord& r : rec.shard_trace(s)) {
      const char kind = gantt_char(rec.std_ids(), r.name);
      if (r.ph == obs::Ph::Span && r.lane == obs::Lane::Core && kind != '?')
        out.push_back({s, kind, r.ts, r.ts + r.dur});
    }
  }
  return out;
}

TEST(Trace, DisabledByDefault) {
  // No recorder unless obs is configured.
  SpmdRuntime rt{RuntimeConfig{}};
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) c.send(1, bio::Bytes(8));
    else (void)c.recv(0);
  });
  EXPECT_EQ(rt.obs(), nullptr);
}

TEST(Trace, RecordsAllKinds) {
  SpmdRuntime rt(traced_config());
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.dram_read(1024);
      c.charge(noc::kPsPerMs);
      c.send(1, bio::Bytes(64));
      (void)c.probe(1);
    } else {
      (void)c.recv(0);  // blocks first
    }
  });
  std::set<char> kinds;
  for (const Activity& a : activity(rt)) kinds.insert(a.kind);
  EXPECT_EQ(kinds, (std::set<char>{'C', 'S', 'R', 'P', 'D', 'b'}));
}

TEST(Trace, IntervalsAreWellFormed) {
  SpmdRuntime rt(traced_config());
  const noc::SimTime makespan = rt.run(3, [](CoreCtx& c) {
    if (c.rank() == 0) {
      for (int s : {1, 2}) c.send(s, bio::Bytes(32));
      for (int s : {1, 2}) (void)c.recv(s);
    } else {
      (void)c.recv(0);
      c.charge(noc::kPsPerMs);
      c.send(0, bio::Bytes(8));
    }
  });
  const std::vector<Activity> spans = activity(rt);
  ASSERT_FALSE(spans.empty());
  for (const Activity& a : spans) {
    EXPECT_LT(a.start, a.end);
    EXPECT_LE(a.end, makespan);
    EXPECT_GE(a.rank, 0);
    EXPECT_LT(a.rank, 3);
  }
}

TEST(Trace, PerCoreIntervalsDoNotOverlap) {
  SpmdRuntime rt(traced_config());
  rt.run(2, [](CoreCtx& c) {
    if (c.rank() == 0) {
      c.charge(noc::kPsPerUs);
      c.send(1, bio::Bytes(16));
      (void)c.recv(1);
    } else {
      (void)c.recv(0);
      c.charge(2 * noc::kPsPerUs);
      c.send(0, bio::Bytes(16));
    }
  });
  // Spans for one rank, in recorded order, must be non-overlapping.
  std::array<noc::SimTime, 2> last_end{0, 0};
  for (const Activity& a : activity(rt)) {
    EXPECT_GE(a.start, last_end[static_cast<std::size_t>(a.rank)]);
    last_end[static_cast<std::size_t>(a.rank)] = a.end;
  }
}

TEST(Trace, BusyTimeMatchesReports) {
  SpmdRuntime rt(traced_config());
  rt.run(1, [](CoreCtx& c) {
    c.charge(3 * noc::kPsPerMs);
    c.charge(noc::kPsPerMs);
  });
  noc::SimTime traced_busy = 0;
  for (const Activity& a : activity(rt))
    if (a.kind != 'b') traced_busy += a.end - a.start;
  EXPECT_EQ(traced_busy, rt.core_reports()[0].busy);
}

TEST(Gantt, RendersOneRowPerCore) {
  SpmdRuntime rt(traced_config());
  const noc::SimTime makespan = rt.run(3, [](CoreCtx& c) {
    c.charge((static_cast<noc::SimTime>(c.rank()) + 1) * noc::kPsPerMs);
  });
  GanttOptions opts;
  opts.width = 40;
  const std::string chart = render_gantt(*rt.obs(), makespan, opts);
  EXPECT_NE(chart.find("rck00 |"), std::string::npos);
  EXPECT_NE(chart.find("rck02 |"), std::string::npos);
  EXPECT_EQ(chart.find("rck03 |"), std::string::npos);  // one row per shard
  EXPECT_NE(chart.find("master"), std::string::npos);
  EXPECT_NE(chart.find("C compute"), std::string::npos);
  // Core 2 computed for the whole makespan: its row is all 'C'.
  const std::size_t row2 = chart.find("rck02 |") + 7;
  for (std::size_t c = 0; c < 40; ++c) EXPECT_EQ(chart[row2 + c], 'C');
  // Core 0 computed for a third: its row has idle columns.
  const std::size_t row0 = chart.find("rck00 |") + 7;
  EXPECT_EQ(chart[row0 + 39], '.');
}

TEST(Gantt, KindCharactersDistinct) {
  const obs::Recorder rec(obs::Config::collect(), 1);
  const obs::Std& ids = rec.std_ids();
  std::set<char> chars;
  for (const obs::NameId name : {ids.n_compute, ids.n_send, ids.n_recv, ids.n_poll,
                                 ids.n_dram, ids.n_blocked})
    chars.insert(gantt_char(ids, name));
  EXPECT_EQ(chars.size(), 6u);
  EXPECT_EQ(chars.count('?'), 0u);
  EXPECT_EQ(gantt_char(ids, ids.n_job), '?');  // not an activity span
}

TEST(Gantt, RejectsBadDimensions) {
  obs::Recorder no_cores(obs::Config::collect(), 0);
  no_cores.seal();
  EXPECT_THROW(render_gantt(no_cores, 100), rck::scc::ChipError);
  obs::Recorder one_core(obs::Config::collect(), 1);
  one_core.seal();
  GanttOptions bad;
  bad.width = 0;
  EXPECT_THROW(render_gantt(one_core, 100, bad), rck::scc::ChipError);
}

}  // namespace
}  // namespace rck::scc
