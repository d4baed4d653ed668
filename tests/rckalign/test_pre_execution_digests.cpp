// Pinned simulated observables of every farm driver on uncached CK34.
//
// Each digest is an FNV-1a hash over everything a run reports about the
// simulated execution: the makespan, every result row in collection order
// (worker rank included), the per-core reports, and — where the run struct
// carries them — network statistics, the fired-event count and the obs
// metrics snapshot bytes. The first table was recorded from the inline-kernel
// farm (slaves ran TM-align themselves while holding the scheduler); the
// second covers the paths those uncached digests miss (cached replay with
// cost-derived leases, a cached method partition, a k-vs-all spec list) and
// was recorded from the pre-execution farm with one SPMD program per driver.
// Both must hold at every host width: kernel pre-execution may change how
// fast a run finishes on the host, never what it simulates. A third table
// pins the obs trace bytes of each flat-farm flavour at one host width; it
// was recorded from the farm whose plain and fault-tolerant masters were
// still two loops, and holds for the one engine that replaced them. A fourth
// pins the Gantt chart and link heatmap of four of those flavours. Its Gantt
// values were recorded when the runtime still kept a separate activity
// trace: the chart was render_gantt over that trace for every core. Its
// heatmap values were recorded when the heatmap began scaling each link to
// the busiest link's busy time; in tenths of the makespan, all four had read
// 0 on every link.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/noc/heatmap.hpp"
#include "rck/obs/obs.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/blocked.hpp"
#include "rck/rckalign/extensions.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/scc/gantt.hpp"

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

/// An all-vs-all matrix's rows: the pair, the scores and the worker.
void add_matrix_rows(Fnv& f, const std::vector<PairRow>& rows) {
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

/// A spec list's rows: every field, the spec and its method included.
void add_spec_rows(Fnv& f, const std::vector<PairRow>& rows) {
  f.pod(rows.size());
  for (const PairRow& r : rows) {
    f.pod(r.spec);
    f.pod(r.i);
    f.pod(r.j);
    f.pod(r.method);
    f.pod(r.tm_norm_a);
    f.pod(r.tm_norm_b);
    f.pod(r.rmsd);
    f.pod(r.seq_identity);
    f.pod(r.aligned_length);
    f.pod(r.work_cycles);
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

void add_farm_report(Fnv& f, const rckskel::FarmReport& r) {
  f.pod(r.jobs);
  f.pod(r.attempts);
  f.pod(r.retries);
  f.pod(r.reassignments);
  f.pod(r.lease_expiries);
  f.pod(r.corrupt_frames);
  f.pod(r.duplicate_results);
  f.pod(r.checkpoints);
  f.pod(r.failovers);
  f.pod(r.resumed_jobs);
  f.pod(r.dead_ues.size());
  for (const int ue : r.dead_ues) f.pod(ue);
  f.pod(r.wasted);
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

/// CK34's TM-align matrix, shared by every cached pin.
const PairCache& ck34_cache() {
  static const PairCache cache = PairCache::build(ck34());
  return cache;
}

scc::RuntimeConfig runtime(int width) {
  scc::RuntimeConfig rt;
  rt.host.threads = width;
  return rt;
}

enum class Farm { Plain, Batch4, FtSlaveCrash, MasterFt };

PairsRun farm_run(bool lpt, Farm farm, int width, const PairCache* cache) {
  RckAlignOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  o.runtime.obs = obs::Config::collect();
  o.lpt = lpt;
  o.cache = cache;
  // Uncached, the cost hint is the L1*L2 proxy rather than cycles, so the
  // FT farms get a fixed lease well above CK34's longest job instead. A
  // cache makes the hint exact, and the lease is derived from it.
  if (cache == nullptr) o.ft.lease = noc::from_seconds(60.0);
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
  const PairsRun run = run_rckalign(ck34(), o);
  if (farm == Farm::FtSlaveCrash) {
    EXPECT_TRUE(run.core_reports[3].crashed);
  } else if (farm == Farm::MasterFt) {
    EXPECT_EQ(run.farm_report.failovers, 1u);
  }
  return run;
}

std::string farm_digest(bool lpt, Farm farm, int width, const PairCache* cache) {
  const PairsRun run = farm_run(lpt, farm, width, cache);
  Fnv f;
  f.pod(run.makespan);
  add_matrix_rows(f, run.results);
  add_reports(f, run.core_reports);
  add_network(f, run.network);
  f.pod(run.events);
  const std::string metrics = run.obs->snapshot().to_json();
  f.bytes(metrics.data(), metrics.size());
  return hex(f.h);
}

template <bool Lpt, Farm F>
std::string farm(int width) {
  return farm_digest(Lpt, F, width, nullptr);
}

template <bool Lpt, Farm F>
std::string cached_farm(int width) {
  return farm_digest(Lpt, F, width, &ck34_cache());
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
  add_matrix_rows(f, run.results);
  f.pod(run.blocks);
  f.pod(run.block_loads);
  f.pod(run.bytes_loaded);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string mcpsc_digest(int width) {
  MultiMethodOptions o;
  o.runtime = runtime(width);
  o.groups = {{Method::TmAlign, 8}, {Method::GaplessRmsd, 4}};
  const MultiMethodRun run = run_multi_method(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  add_matrix_rows(f, run.results[0]);
  add_matrix_rows(f, run.results[1]);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

std::string multi_method_digest(int width, const PairCache* cache) {
  MultiMethodOptions o;
  o.runtime = runtime(width);
  o.cache = cache;
  // CE costs ~40x a TM-align in cycles; a small CE group would leave the
  // others idle past the farm's slave idle timeout.
  o.groups = {{Method::TmAlign, 6},
              {Method::GaplessRmsd, 1},
              {Method::CeAlign, 39},
              {Method::SeqNw, 1}};
  const MultiMethodRun run = run_multi_method(ck34(), o);
  Fnv f;
  f.pod(run.makespan);
  for (const std::vector<PairRow>& rows : run.results) add_matrix_rows(f, rows);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

template <bool Cached>
std::string multi_method(int width) {
  return multi_method_digest(width, Cached ? &ck34_cache() : nullptr);
}

enum class SpecFarm { FtSlaveCrash, Batch4 };

/// A k-vs-all spec list straight through run_pairs: three seeded probes
/// appended to CK34, each aligned onto every entry under TM-align and then
/// gapless RMSD (run_query's method-major, probe-major order).
template <SpecFarm F>
std::string k_vs_all(int width) {
  std::vector<bio::Protein> probes;
  bio::Rng rng(0xC0FFEE);
  for (int k = 0; k < 3; ++k)
    probes.push_back(bio::perturb(ck34()[rng() % ck34().size()],
                                  "probe/k" + std::to_string(k), rng));
  std::vector<const bio::Protein*> structures;
  for (const bio::Protein& p : ck34()) structures.push_back(&p);
  for (const bio::Protein& p : probes) structures.push_back(&p);
  const auto n = static_cast<std::uint32_t>(ck34().size());
  std::vector<PairSpec> specs;
  for (const Method m : {Method::TmAlign, Method::GaplessRmsd})
    for (std::uint32_t p = 0; p < probes.size(); ++p)
      for (std::uint32_t e = 0; e < n; ++e) specs.push_back(PairSpec{n + p, e, m});

  PairsOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  if (F == SpecFarm::FtSlaveCrash) {
    o.fault_tolerant = true;
    o.ft.lease = noc::from_seconds(60.0);
    o.runtime.faults.crashes.push_back({3, noc::from_seconds(4.0)});
  } else {
    o.batch = 4;
  }
  const PairsRun run = run_pairs(structures, specs, o);
  if (F == SpecFarm::FtSlaveCrash) {
    EXPECT_TRUE(run.core_reports[3].crashed);
  }
  Fnv f;
  f.pod(run.makespan);
  add_spec_rows(f, run.results);
  add_reports(f, run.core_reports);
  add_network(f, run.network);
  add_farm_report(f, run.farm_report);
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
  add_matrix_rows(f, run.results);
  add_reports(f, run.core_reports);
  return hex(f.h);
}

/// Algorithm 1 straight through run_pairs: CK34's first chain as the query,
/// appended after the other 33 as the database, aligned onto every entry
/// under three methods (methods-major), and each method's hits ranked by
/// rck::rank_query_hits.
std::string one_vs_all_digest(int width) {
  std::vector<const bio::Protein*> structures;
  for (auto it = ck34().begin() + 1; it != ck34().end(); ++it)
    structures.push_back(&*it);
  const auto n = static_cast<std::uint32_t>(structures.size());
  structures.push_back(&ck34().front());
  const std::vector<Method> methods = {Method::TmAlign, Method::GaplessRmsd,
                                       Method::SeqNw};
  std::vector<PairSpec> specs;
  for (const Method m : methods)
    for (std::uint32_t e = 0; e < n; ++e) specs.push_back(PairSpec{n, e, m});

  PairsOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  const PairsRun run = run_pairs(structures, specs, o);
  std::vector<QueryHit> hits;
  for (const PairRow& row : run.results)
    hits.push_back(query_hit(row, QueryKind::OneVsAll, n));
  rank_query_hits(hits, methods, 0);

  Fnv f;
  f.pod(run.makespan);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    if (k % n == 0) f.pod(static_cast<std::size_t>(n));  // one list per method
    const QueryHit& h = hits[k];
    f.pod(h.entry);
    f.pod(h.method);
    f.pod(h.tm_query);
    f.pod(h.tm_entry);
    f.pod(h.rmsd);
    f.pod(h.seq_identity);
    f.pod(h.aligned_length);
    f.pod(h.worker);
  }
  add_reports(f, run.core_reports);
  add_network(f, run.network);
  return hex(f.h);
}

std::string text_digest(const std::string& text) {
  Fnv f;
  f.bytes(text.data(), text.size());
  return hex(f.h);
}

std::string trace_digest(const obs::Recorder& rec) {
  return text_digest(obs::chrome_trace_json(rec));
}

template <bool Lpt, Farm F>
std::string cached_farm_trace(int width) {
  return trace_digest(*farm_run(Lpt, F, width, &ck34_cache()).obs);
}

/// CK34's cached all-vs-all pairs straight through run_pairs, split into two
/// groups: the first 8 slaves serve the first half of the pairs, the other 4
/// the rest.
std::string partition_trace(int width) {
  std::vector<const bio::Protein*> structures;
  for (const bio::Protein& p : ck34()) structures.push_back(&p);
  const auto n = static_cast<std::uint32_t>(ck34().size());
  std::vector<PairSpec> specs;
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b)
      specs.push_back(PairSpec{a, b, Method::TmAlign});

  PairsOptions o;
  o.slave_count = kSlaves;
  o.runtime = runtime(width);
  o.runtime.obs = obs::Config::collect();
  o.cache = &ck34_cache();
  const std::vector<SlaveGroup> partition = {
      {8, specs.size() / 2}, {kSlaves - 8, specs.size() - specs.size() / 2}};
  return trace_digest(*run_pairs(structures, specs, o, partition).obs);
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
      {"multi-method", "156d8a7ca11d4643", multi_method<false>},
      {"hierarchical", "4857f348108fbfc8", hierarchical_digest},
      {"one-vs-all", "d9fd4a02dfb52968", one_vs_all_digest},
  };
  return table;
}

const std::vector<Pinned>& parent_pinned() {
  static const std::vector<Pinned> table = {
      {"cached/fifo/plain", "8d0e3546ebbe8e78", cached_farm<false, Farm::Plain>},
      {"cached/fifo/batch4", "904c85673c1b909d", cached_farm<false, Farm::Batch4>},
      {"cached/fifo/ft-slave-crash", "934d1ed0f8fdd5d9", cached_farm<false, Farm::FtSlaveCrash>},
      {"cached/fifo/master-ft", "79e3ab2c94687923", cached_farm<false, Farm::MasterFt>},
      {"cached/lpt/plain", "575ef2ef1b4ae55c", cached_farm<true, Farm::Plain>},
      {"cached/lpt/batch4", "f62e98e0554657e7", cached_farm<true, Farm::Batch4>},
      {"cached/lpt/ft-slave-crash", "2f47f0b966515707", cached_farm<true, Farm::FtSlaveCrash>},
      {"cached/lpt/master-ft", "18948823898733ad", cached_farm<true, Farm::MasterFt>},
      {"cached/multi-method", "156d8a7ca11d4643", multi_method<true>},
      {"k-vs-all/ft-slave-crash", "48f796337224e954", k_vs_all<SpecFarm::FtSlaveCrash>},
      {"k-vs-all/batch4", "fd779ca0c205c0cc", k_vs_all<SpecFarm::Batch4>},
  };
  return table;
}

/// FNV-1a of the Chrome trace bytes (obs::chrome_trace_json) of each flat-farm
/// flavour on cached CK34 at host width 1. The metrics-snapshot pins above do
/// not cover them: a reordered span, instant or async begin/end changes these
/// alone.
const std::vector<Pinned>& trace_pinned() {
  static const std::vector<Pinned> table = {
      {"trace/fifo/plain", "6d1dec00de2fc2bc", cached_farm_trace<false, Farm::Plain>},
      {"trace/lpt/batch4", "b5504c9ee510d7da", cached_farm_trace<true, Farm::Batch4>},
      {"trace/fifo/ft-slave-crash", "8b7efa323ff7e564",
       cached_farm_trace<false, Farm::FtSlaveCrash>},
      {"trace/fifo/master-ft", "db3b789da961d8b2",
       cached_farm_trace<false, Farm::MasterFt>},
      {"trace/partition", "7702641adb45a594", partition_trace},
  };
  return table;
}

/// FNV-1a of the Gantt chart (every core, default options) and of the link
/// heatmap of each flat-farm flavour on cached CK34 at host width 1, both
/// drawn from the run's obs recorder.
struct PinnedPictures {
  const char* name;
  bool lpt;
  Farm farm;
  const char* gantt;
  const char* heatmap;
};

const std::vector<PinnedPictures>& pictures_pinned() {
  static const std::vector<PinnedPictures> table = {
      {"fifo/plain", false, Farm::Plain, "029107b35b471384", "ae7ae5e9374941cb"},
      {"lpt/batch4", true, Farm::Batch4, "a14a86d39916ba72", "2e54762922d34c2f"},
      {"fifo/ft-slave-crash", false, Farm::FtSlaveCrash, "116434041cafb10c",
       "1e77d9d680980c5f"},
      {"fifo/master-ft", false, Farm::MasterFt, "eb71c39d468b2c3a",
       "42c595218086fca9"},
  };
  return table;
}

class PinnedDigests : public ::testing::TestWithParam<int> {};

TEST_P(PinnedDigests, EveryDriverMatchesTheInlineKernelFarm) {
  for (const Pinned& p : pinned()) {
    EXPECT_EQ(p.run(GetParam()), p.digest) << p.name;
  }
}

TEST_P(PinnedDigests, CachedAndSpecListPathsMatchTheParentFarm) {
  for (const Pinned& p : parent_pinned()) {
    EXPECT_EQ(p.run(GetParam()), p.digest) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(HostWidth, PinnedDigests, ::testing::Values(1, 2, 4));

TEST(PinnedTraces, FlatFarmTraceBytesMatchTheParentFarm) {
  for (const Pinned& p : trace_pinned()) {
    EXPECT_EQ(p.run(1), p.digest) << p.name;
  }
}

/// The digits of the two links of router 00, the master's: east to 01 and
/// down to 06.
std::string master_router_digits(const std::string& heatmap) {
  const std::size_t east = heatmap.find("[00] ");
  const std::size_t down = heatmap.find(" v");
  if (east == std::string::npos || down == std::string::npos) return {};
  return {heatmap[east + 5], heatmap[down + 2]};
}

TEST(PinnedTraces, GanttAndHeatmapBytesMatchTheParent) {
  const noc::Mesh mesh = runtime(1).chip.make_mesh();
  ASSERT_EQ(runtime(1).chip.router_of_core(0), 0);
  for (const PinnedPictures& p : pictures_pinned()) {
    const PairsRun run = farm_run(p.lpt, p.farm, 1, &ck34_cache());
    EXPECT_EQ(text_digest(scc::render_gantt(*run.obs, run.makespan)), p.gantt) << p.name;
    const std::string heatmap = noc::render_link_heatmap(*run.obs, mesh, run.makespan);
    EXPECT_EQ(text_digest(heatmap), p.heatmap) << p.name;
    // Every job and result crosses the master's router, so one of its links
    // must show traffic.
    const std::string digits = master_router_digits(heatmap);
    ASSERT_EQ(digits.size(), 2u) << p.name;
    EXPECT_NE(digits, "00") << p.name << "\n" << heatmap;
  }
}

}  // namespace
}  // namespace rck::rckalign
