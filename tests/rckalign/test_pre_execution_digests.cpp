// Pinned simulated observables of every farm driver on uncached CK34.
//
// Each digest is an FNV-1a hash over everything a run reports about the
// simulated execution: the makespan, every result row in collection order
// (worker rank included), the per-core reports, and — where the run struct
// carries them — network statistics, the fired-event count and the obs
// metrics snapshot bytes. The values were recorded from the inline-kernel
// farm (slaves ran TM-align themselves while holding the scheduler) and
// must hold at every host width: kernel pre-execution may change how fast
// a run finishes on the host, never what it simulates.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/obs/obs.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/blocked.hpp"
#include "rck/rckalign/extensions.hpp"
#include "rck/rckalign/one_vs_all.hpp"

namespace rck::rckalign {
namespace {

constexpr int kSlaves = 12;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= b[k];
      h *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
};

void add_rows(Fnv& f, const std::vector<PairRow>& rows) {
  f.pod(rows.size());
  for (const PairRow& r : rows) {
    f.pod(r.i);
    f.pod(r.j);
    f.pod(r.tm_norm_a);
    f.pod(r.tm_norm_b);
    f.pod(r.rmsd);
    f.pod(r.seq_identity);
    f.pod(r.aligned_length);
    f.pod(r.worker);
  }
}

void add_reports(Fnv& f, const std::vector<scc::CoreReport>& reports) {
  f.pod(reports.size());
  for (const scc::CoreReport& c : reports) {
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
}

void add_network(Fnv& f, const noc::NetworkStats& n) {
  f.pod(n.messages);
  f.pod(n.total_bytes);
  f.pod(n.total_hops);
  f.pod(n.total_queueing);
  f.pod(n.dropped);
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

const std::vector<bio::Protein>& ck34() {
  static const std::vector<bio::Protein> data = bio::build_dataset(bio::ck34_spec());
  return data;
}

scc::RuntimeConfig runtime(int width) {
  scc::RuntimeConfig rt;
  rt.host.threads = width;
  return rt;
}

enum class Farm { Plain, Batch4, FtSlaveCrash, MasterFt };

std::string farm_digest(bool lpt, Farm farm, int width) {
  RckAlignOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  o.runtime.obs = obs::Config::collect();
  o.lpt = lpt;
  // Uncached, the LPT cost hint is the L1*L2 proxy rather than cycles, so
  // the FT farms get a fixed lease well above CK34's longest job instead.
  o.ft.lease = noc::from_seconds(60.0);
  switch (farm) {
    case Farm::Plain:
      break;
    case Farm::Batch4:
      o.batch = 4;
      break;
    case Farm::FtSlaveCrash:
      o.fault_tolerant = true;
      o.runtime.faults.crashes.push_back({3, noc::from_seconds(60.0)});
      break;
    case Farm::MasterFt:
      o.master_ft = true;
      o.runtime.faults.crashes.push_back({0, noc::from_seconds(80.0)});
      break;
  }
  const RckAlignRun run = run_rckalign(ck34(), o);
  if (farm == Farm::FtSlaveCrash) {
    EXPECT_TRUE(run.core_reports[3].crashed);
  } else if (farm == Farm::MasterFt) {
    EXPECT_EQ(run.farm_report.failovers, 1u);
  }
  Fnv f;
  f.pod(run.makespan);
  add_rows(f, run.results);
  add_reports(f, run.core_reports);
  add_network(f, run.network);
  f.pod(run.events);
  const std::string metrics = run.obs->snapshot().to_json();
  f.bytes(metrics.data(), metrics.size());
  return hex(f.h);
}

template <bool Lpt, Farm F>
std::string farm(int width) {
  return farm_digest(Lpt, F, width);
}

std::string blocked_digest(int width) {
  BlockedOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  std::uint64_t bytes = 0;
  for (const bio::Protein& p : ck34()) bytes += p.wire_size();
  o.master_memory_bytes = bytes;  // two resident blocks of half the set each
  const BlockedRun run = run_rckalign_blocked(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  add_rows(f, run.results);
  f.pod(run.blocks);
  f.pod(run.block_loads);
  f.pod(run.bytes_loaded);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string mcpsc_digest(int width) {
  McPscOptions o;
  o.runtime = runtime(width);
  o.tmalign_slaves = 8;
  o.rmsd_slaves = 4;
  const McPscRun run = run_mcpsc(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  add_rows(f, run.tmalign_results);
  add_rows(f, run.rmsd_results);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string multi_method_digest(int width) {
  MultiMethodOptions o;
  o.runtime = runtime(width);
  // CE costs ~40x a TM-align in cycles; a small CE group would leave the
  // others idle past the farm's slave idle timeout.
  o.groups = {{Method::TmAlign, 6},
              {Method::GaplessRmsd, 1},
              {Method::CeAlign, 39},
              {Method::SeqNw, 1}};
  const MultiMethodRun run = run_multi_method(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  for (const std::vector<PairRow>& rows : run.results) add_rows(f, rows);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string hierarchical_digest(int width) {
  HierarchyOptions o;
  o.runtime = runtime(width);
  o.group_count = 3;
  o.slave_count = kSlaves;
  const HierarchyRun run = run_hierarchical(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  add_rows(f, run.results);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string one_vs_all_digest(int width) {
  const std::vector<bio::Protein> db(ck34().begin() + 1, ck34().end());
  OneVsAllOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  o.methods = {Method::TmAlign, Method::GaplessRmsd, Method::SeqNw};
  const OneVsAllRun run = run_one_vs_all(ck34().front(), db, o);
  Fnv f;
  f.pod(run.makespan);
  for (const std::vector<Hit>& hits : run.ranked) {
    f.pod(hits.size());
    for (const Hit& h : hits) {
      f.pod(h.entry);
      f.pod(h.method);
      f.pod(h.tm_query);
      f.pod(h.tm_entry);
      f.pod(h.rmsd);
      f.pod(h.seq_identity);
      f.pod(h.aligned_length);
      f.pod(h.worker);
    }
  }
  add_reports(f, run.core_reports);
  add_network(f, run.network);
  return hex(f.h);
}

struct Pinned {
  const char* name;
  const char* digest;
  std::string (*run)(int width);
};

const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> table = {
      {"fifo/plain", "8d0e3546ebbe8e78", farm<false, Farm::Plain>},
      {"fifo/batch4", "904c85673c1b909d", farm<false, Farm::Batch4>},
      {"fifo/ft-slave-crash", "d7f1ebb5dbcfe9dd", farm<false, Farm::FtSlaveCrash>},
      {"fifo/master-ft", "52e5f2bc9370d4e1", farm<false, Farm::MasterFt>},
      {"lpt/plain", "906f8565c3d591c3", farm<true, Farm::Plain>},
      {"lpt/batch4", "651e56f43f938b97", farm<true, Farm::Batch4>},
      {"lpt/ft-slave-crash", "7dcaa695cee9ca26", farm<true, Farm::FtSlaveCrash>},
      {"lpt/master-ft", "221913c5e306a7f7", farm<true, Farm::MasterFt>},
      {"blocked", "f8294ed58461bf8c", blocked_digest},
      {"mcpsc", "f0a6c98377405f39", mcpsc_digest},
      {"multi-method", "156d8a7ca11d4643", multi_method_digest},
      {"hierarchical", "4857f348108fbfc8", hierarchical_digest},
      {"one-vs-all", "d9fd4a02dfb52968", one_vs_all_digest},
  };
  return table;
}

class PinnedDigests : public ::testing::TestWithParam<int> {};

TEST_P(PinnedDigests, EveryDriverMatchesTheInlineKernelFarm) {
  for (const Pinned& p : pinned()) {
    EXPECT_EQ(p.run(GetParam()), p.digest) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(HostWidth, PinnedDigests, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace rck::rckalign
