#include "rck/obs/obs.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rck::obs {

namespace {

// Trace records reserved per shard up front; growth past it is amortized
// (metrics are allocation-free regardless).
constexpr std::size_t kTraceReserve = 4096;

}  // namespace

Recorder::Recorder(Config cfg, int core_shards)
    : cfg_(std::move(cfg)), core_shards_(core_shards) {
  if (core_shards < 0) throw ObsError("obs: negative shard count");
  // Name id 0 is reserved so a default-constructed TraceRecord never aliases
  // a real event name.
  names_.emplace_back("<unnamed>");

  Registry& reg = registry_;
  std_.noc_messages = reg.counter("noc.messages");
  std_.noc_bytes = reg.counter("noc.bytes", Unit::Bytes);
  std_.noc_flits_local = reg.counter("noc.flits.local", Unit::Flits);
  std_.noc_flits_x = reg.counter("noc.flits.x", Unit::Flits);
  std_.noc_flits_y = reg.counter("noc.flits.y", Unit::Flits);
  std_.noc_drops = reg.counter("noc.drops");
  std_.scc_dram_reads = reg.counter("scc.dram.reads");
  std_.scc_dram_stall_ps = reg.counter("scc.dram.stall_ps", Unit::Ps);
  std_.scc_polls = reg.counter("scc.polls");
  std_.scc_crashes = reg.counter("scc.crashes");
  std_.scc_msg_faults = reg.counter("scc.msg_faults");
  std_.farm_jobs = reg.counter("farm.jobs", Unit::Jobs);
  std_.farm_results = reg.counter("farm.results", Unit::Jobs);
  std_.farm_retries = reg.counter("farm.retries", Unit::Jobs);
  std_.farm_lease_expiries = reg.counter("farm.lease_expiries");
  std_.farm_corrupt_frames = reg.counter("farm.corrupt_frames");
  std_.farm_duplicates = reg.counter("farm.duplicate_results");
  std_.farm_checkpoints = reg.counter("farm.checkpoints");
  std_.farm_failovers = reg.counter("farm.failovers");
  std_.app_pairs = reg.counter("app.pairs");
  std_.app_kernel_ps = reg.counter("app.kernel_ps", Unit::Ps);
  std_.app_block_loads = reg.counter("app.block_loads");

  std_.app_pairs_per_sec = reg.gauge("app.pairs_per_sec");
  std_.farm_live_slaves = reg.gauge("farm.live_slaves");

  std_.farm_job_latency_ps = reg.histogram("farm.job_latency_ps", Unit::Ps);
  std_.farm_slave_job_ps = reg.histogram("farm.slave_job_ps", Unit::Ps);
  std_.farm_recovery_ps = reg.histogram("farm.recovery_ps", Unit::Ps);
  std_.noc_msg_bytes = reg.histogram("noc.msg_bytes", Unit::Bytes);
  std_.noc_queue_ps = reg.histogram("noc.queue_ps", Unit::Ps);

  std_.n_compute = name("compute");
  std_.n_send = name("send");
  std_.n_recv = name("recv");
  std_.n_poll = name("poll");
  std_.n_dram = name("dram");
  std_.n_blocked = name("blocked");
  std_.n_job = name("job");
  std_.n_dispatch = name("dispatch");
  std_.n_farm = name("farm");
  std_.n_ready = name("ready");
  std_.n_link = name("link");
  std_.n_mpb = name("mpb_occupancy");
  std_.n_crash = name("crash");
  std_.n_msg_drop = name("msg_drop");
  std_.n_msg_corrupt = name("msg_corrupt");
  std_.n_stall = name("stall");
  std_.n_restart = name("restart");
  std_.n_lease_expiry = name("lease_expiry");
  std_.n_checkpoint = name("checkpoint");
  std_.n_failover = name("failover");
  std_.n_phase = name("phase");
  std_.n_load_dataset = name("load_dataset");
  std_.n_build_jobs = name("build_jobs");
  std_.n_decode_results = name("decode_results");
  std_.n_block_load = name("block_load");
  std_.n_chk_race = name("chk_race");
}

void Recorder::set_section(std::string key, std::string json) {
  for (auto& [k, v] : sections_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  sections_.emplace_back(std::move(key), std::move(json));
}

NameId Recorder::name(std::string_view s) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == s) return i;
  }
  if (sealed_) {
    throw ObsError("obs: name interned after seal(): " +
                           std::string(s));
  }
  names_.emplace_back(s);
  return static_cast<NameId>(names_.size() - 1);
}

void Recorder::seal() {
  if (sealed_) return;
  shards_.resize(static_cast<std::size_t>(shard_count()));
  for (Shard& sh : shards_) {
    sh.counters.assign(registry_.counters().size(), 0);
    sh.gauges.assign(registry_.gauges().size(), GaugeCell{});
    sh.hists.assign(registry_.histograms().size(), Histogram{});
    sh.trace.reserve(kTraceReserve);
  }
  sealed_ = true;
}

void Recorder::add(int shard, CounterId c, std::uint64_t delta) noexcept {
  assert(sealed_);
  if (!c.ok()) return;
  shards_[static_cast<std::size_t>(shard)].counters[c.v] += delta;
}

void Recorder::set_gauge(int shard, GaugeId g, double value, Ts ts) noexcept {
  assert(sealed_);
  if (!g.ok()) return;
  GaugeCell& cell = shards_[static_cast<std::size_t>(shard)].gauges[g.v];
  // Keep the latest sample per shard; cross-shard resolution happens in
  // snapshot(). `>=` so a same-instant overwrite from the same shard wins.
  if (!cell.set || ts >= cell.ts) {
    cell.value = value;
    cell.ts = ts;
    cell.set = true;
  }
}

void Recorder::observe(int shard, HistId h, std::uint64_t value) noexcept {
  assert(sealed_);
  if (!h.ok()) return;
  shards_[static_cast<std::size_t>(shard)].hists[h.v].observe(value);
}

void Recorder::span(int shard, Lane lane, NameId name, Ts start, Ts end,
                    std::uint64_t id) {
  assert(sealed_);
  TraceRecord r;
  r.ts = start;
  r.dur = end >= start ? end - start : 0;
  r.id = id;
  r.name = name;
  r.ph = Ph::Span;
  r.lane = lane;
  shards_[static_cast<std::size_t>(shard)].trace.push_back(r);
}

void Recorder::instant(int shard, Lane lane, NameId name, Ts ts,
                       std::uint64_t id) {
  assert(sealed_);
  TraceRecord r;
  r.ts = ts;
  r.id = id;
  r.name = name;
  r.ph = Ph::Instant;
  r.lane = lane;
  shards_[static_cast<std::size_t>(shard)].trace.push_back(r);
}

void Recorder::sample(int shard, Lane lane, NameId name, Ts ts,
                      std::int64_t value, std::uint64_t id) {
  assert(sealed_);
  TraceRecord r;
  r.ts = ts;
  r.value = value;
  r.id = id;
  r.name = name;
  r.ph = Ph::Counter;
  r.lane = lane;
  shards_[static_cast<std::size_t>(shard)].trace.push_back(r);
}

void Recorder::async_begin(int shard, Lane lane, NameId name, Ts ts,
                           std::uint64_t id) {
  assert(sealed_);
  TraceRecord r;
  r.ts = ts;
  r.id = id;
  r.name = name;
  r.ph = Ph::AsyncBegin;
  r.lane = lane;
  shards_[static_cast<std::size_t>(shard)].trace.push_back(r);
}

void Recorder::async_end(int shard, Lane lane, NameId name, Ts ts,
                         std::uint64_t id) {
  assert(sealed_);
  TraceRecord r;
  r.ts = ts;
  r.id = id;
  r.name = name;
  r.ph = Ph::AsyncEnd;
  r.lane = lane;
  shards_[static_cast<std::size_t>(shard)].trace.push_back(r);
}

Snapshot Recorder::snapshot() const {
  Snapshot snap;
  const std::size_t nshards = shards_.size();

  const auto& cinfos = registry_.counters();
  snap.counters.resize(cinfos.size());
  for (std::size_t c = 0; c < cinfos.size(); ++c) {
    Snapshot::CounterRow& row = snap.counters[c];
    row.name = cinfos[c].name;
    row.unit = cinfos[c].unit;
    row.per_shard.resize(nshards, 0);
    for (std::size_t s = 0; s < nshards; ++s) {
      row.per_shard[s] = shards_[s].counters[c];
      row.value += shards_[s].counters[c];
    }
  }

  const auto& ginfos = registry_.gauges();
  snap.gauges.resize(ginfos.size());
  for (std::size_t g = 0; g < ginfos.size(); ++g) {
    Snapshot::GaugeRow& row = snap.gauges[g];
    row.name = ginfos[g].name;
    row.unit = ginfos[g].unit;
    // Last write wins by (ts, shard): ties at the same simulated instant
    // resolve to the highest shard, a fixed rule independent of host order.
    Ts best_ts = 0;
    for (std::size_t s = 0; s < nshards; ++s) {
      const GaugeCell& cell = shards_[s].gauges[g];
      if (!cell.set) continue;
      if (!row.set || cell.ts >= best_ts) {
        row.value = cell.value;
        row.set = true;
        best_ts = cell.ts;
      }
    }
  }

  const auto& hinfos = registry_.histograms();
  snap.histograms.resize(hinfos.size());
  for (std::size_t h = 0; h < hinfos.size(); ++h) {
    Snapshot::HistRow& row = snap.histograms[h];
    row.name = hinfos[h].name;
    row.unit = hinfos[h].unit;
    for (std::size_t s = 0; s < nshards; ++s) {
      row.merged.merge(shards_[s].hists[h]);
    }
  }

  snap.extra = sections_;
  return snap;
}

std::vector<Recorder::MergedRecord> Recorder::merged_trace() const {
  std::vector<MergedRecord> all;
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.trace.size();
  all.reserve(total);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const TraceRecord& r : shards_[s].trace) {
      all.push_back(MergedRecord{r, static_cast<int>(s)});
    }
  }
  // Canonical order: (ts, shard, per-shard sequence). stable_sort keeps the
  // per-shard append order as the final tiebreaker, and every key component
  // is a simulation observable — host scheduling cannot perturb the result.
  std::stable_sort(all.begin(), all.end(),
                   [](const MergedRecord& a, const MergedRecord& b) {
                     if (a.rec.ts != b.rec.ts) return a.rec.ts < b.rec.ts;
                     return a.shard < b.shard;
                   });
  return all;
}

}  // namespace rck::obs
