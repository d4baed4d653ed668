// rck::obs unit tests: histogram bucket math, registry identity, recorder
// shard merging, and byte-stable serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "rck/obs/metrics.hpp"
#include "rck/obs/obs.hpp"
#include "rck/obs/sink.hpp"
#include "rck/obs/trace_check.hpp"

namespace {

using namespace rck;

TEST(Histogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(255), 8u);
  EXPECT_EQ(H::bucket_of(256), 9u);
  EXPECT_EQ(H::bucket_of(UINT64_MAX), 64u);

  // Every power of two sits at the bottom of its own bucket.
  for (unsigned k = 0; k < 64; ++k) {
    const std::uint64_t v = std::uint64_t{1} << k;
    const auto [lo, hi] = H::bucket_range(H::bucket_of(v));
    EXPECT_EQ(lo, v);
    EXPECT_TRUE(v < hi);
    if (v > 1) {
      EXPECT_EQ(H::bucket_of(v - 1), H::bucket_of(v) - 1);
    }
  }
  EXPECT_EQ(H::bucket_range(0), (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(H::bucket_range(64).second, UINT64_MAX);
}

TEST(Histogram, ObserveTracksMoments) {
  obs::Histogram h;
  h.observe(0);
  h.observe(7);
  h.observe(8);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 15u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 8u);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[3], 1u);  // 7 in [4, 8)
  EXPECT_EQ(h.buckets[4], 1u);  // 8 in [8, 16)
}

TEST(Histogram, SumSaturatesInsteadOfWrapping) {
  obs::Histogram h;
  h.observe(UINT64_MAX);
  h.observe(UINT64_MAX);
  EXPECT_EQ(h.sum, UINT64_MAX);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.buckets[64], 2u);

  obs::Histogram other;
  other.observe(UINT64_MAX);
  h.merge(other);
  EXPECT_EQ(h.sum, UINT64_MAX);  // merge saturates too
  EXPECT_EQ(h.count, 3u);
}

TEST(Histogram, MergeWithEmptyKeepsMinMax) {
  obs::Histogram a;
  a.observe(5);
  obs::Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.min, 5u);
  EXPECT_EQ(a.max, 5u);
  EXPECT_EQ(a.count, 1u);

  obs::Histogram b;
  b.merge(a);
  EXPECT_EQ(b.min, 5u);
  EXPECT_EQ(b.max, 5u);
}

TEST(Registry, ReRegisteringReturnsSameId) {
  obs::Registry reg;
  const obs::CounterId a = reg.counter("x.count", obs::Unit::Jobs);
  const obs::CounterId b = reg.counter("x.count", obs::Unit::Jobs);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(reg.counters().size(), 1u);
  // Same name, different kind => separate namespaces, no clash.
  const obs::GaugeId g = reg.gauge("x.count");
  EXPECT_TRUE(g.ok());
}

TEST(Registry, UnitMismatchThrows) {
  obs::Registry reg;
  reg.counter("x.bytes", obs::Unit::Bytes);
  EXPECT_THROW(reg.counter("x.bytes", obs::Unit::Ps), rck::obs::ObsError);
}

TEST(Recorder, NullHandleIsSafe) {
  const obs::Handle h;
  EXPECT_FALSE(h);
  h.add(obs::CounterId{0});
  h.set_gauge(obs::GaugeId{0}, 1.0, 5);
  h.observe(obs::HistId{0}, 3);
  h.span(obs::Lane::Core, 1, 0, 10);
  h.instant(obs::Lane::Farm, 1, 0);
  h.sample(obs::Lane::Core, 1, 0, 42);
  h.async_begin(obs::Lane::Farm, 1, 0, 7);
  h.async_end(obs::Lane::Farm, 1, 0, 7);
  // Reaching here without a crash is the assertion.
}

TEST(Recorder, InterningAfterSealThrows) {
  obs::Recorder rec(obs::Config::collect(), 2);
  rec.seal();
  EXPECT_THROW(rec.name("too-late"), rck::obs::ObsError);
  // Re-interning an existing name is still fine after seal.
  EXPECT_EQ(rec.name("compute"), rec.std_ids().n_compute);
}

TEST(Recorder, CountersSumAcrossShards) {
  obs::Recorder rec(obs::Config::collect(), 3);
  rec.seal();
  const obs::Std& ids = rec.std_ids();
  rec.add(0, ids.app_pairs, 2);
  rec.add(2, ids.app_pairs, 5);
  rec.add(rec.system_shard(), ids.app_pairs, 1);

  const obs::Snapshot snap = rec.snapshot();
  for (const auto& row : snap.counters) {
    if (row.name != "app.pairs") continue;
    EXPECT_EQ(row.value, 8u);
    ASSERT_EQ(row.per_shard.size(), 4u);  // 3 cores + system
    EXPECT_EQ(row.per_shard[0], 2u);
    EXPECT_EQ(row.per_shard[1], 0u);
    EXPECT_EQ(row.per_shard[2], 5u);
    EXPECT_EQ(row.per_shard[3], 1u);
    return;
  }
  FAIL() << "app.pairs row missing";
}

TEST(Recorder, GaugeLastWriteWinsByTsThenShard) {
  obs::Recorder rec(obs::Config::collect(), 2);
  rec.seal();
  const obs::GaugeId g = rec.std_ids().farm_live_slaves;
  rec.set_gauge(0, g, 10.0, /*ts=*/100);
  rec.set_gauge(1, g, 20.0, /*ts=*/50);  // earlier ts loses despite higher shard
  obs::Snapshot snap = rec.snapshot();
  EXPECT_EQ(snap.gauges[1].name, "farm.live_slaves");
  EXPECT_DOUBLE_EQ(snap.gauges[1].value, 10.0);

  rec.set_gauge(1, g, 30.0, /*ts=*/100);  // same ts, higher shard wins
  snap = rec.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges[1].value, 30.0);
}

TEST(Recorder, MergedTraceOrderIsTsThenShardThenSeq) {
  obs::Recorder rec(obs::Config::collect(), 2);
  rec.seal();
  const obs::NameId n = rec.std_ids().n_compute;
  // Shard 1 records before shard 0 in host order; ts order must win.
  rec.span(1, obs::Lane::Core, n, 200, 300, 1);
  rec.span(0, obs::Lane::Core, n, 100, 150, 2);
  rec.instant(0, obs::Lane::Core, n, 200, 3);  // ties ts=200 with shard 1 span
  rec.instant(0, obs::Lane::Core, n, 200, 4);  // per-shard seq tiebreak

  const auto merged = rec.merged_trace();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].rec.id, 2u);  // ts=100
  EXPECT_EQ(merged[1].rec.id, 3u);  // ts=200 shard 0, first
  EXPECT_EQ(merged[2].rec.id, 4u);  // ts=200 shard 0, second
  EXPECT_EQ(merged[3].rec.id, 1u);  // ts=200 shard 1
}

/// Two recorders fed the same data through different host-side interleavings
/// must serialize to identical bytes — the unit-level version of the
/// serial-vs-parallel byte-identity guarantee.
TEST(Recorder, SerializationIsByteStable) {
  auto fill = [](obs::Recorder& rec, bool reversed) {
    rec.seal();
    const obs::Std& ids = rec.std_ids();
    const int shards[2] = {reversed ? 1 : 0, reversed ? 0 : 1};
    for (const int s : shards) {
      rec.add(s, ids.noc_messages, static_cast<std::uint64_t>(s) + 1);
      rec.observe(s, ids.noc_msg_bytes, 100u * static_cast<std::uint64_t>(s + 1));
      rec.span(s, obs::Lane::Core, ids.n_compute, 10u * static_cast<obs::Ts>(s),
               10u * static_cast<obs::Ts>(s) + 5, static_cast<std::uint64_t>(s));
    }
    rec.set_gauge(0, ids.app_pairs_per_sec, 3.25, 40);
  };
  obs::Recorder a(obs::Config::collect(), 2), b(obs::Config::collect(), 2);
  fill(a, false);
  fill(b, true);

  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
  EXPECT_EQ(obs::chrome_trace_json(a), obs::chrome_trace_json(b));
}

TEST(Recorder, ChromeTraceJsonValidates) {
  obs::Recorder rec(obs::Config::collect(), 2);
  rec.seal();
  const obs::Std& ids = rec.std_ids();
  rec.span(0, obs::Lane::Core, ids.n_compute, 0, 1000, 0);
  rec.instant(1, obs::Lane::Core, ids.n_crash, 500, 1);
  rec.sample(1, obs::Lane::Core, ids.n_mpb, 700, 64, 1);
  rec.async_begin(0, obs::Lane::Farm, ids.n_job, 100, 7);
  rec.async_end(0, obs::Lane::Farm, ids.n_job, 900, 7);
  rec.span(rec.system_shard(), obs::Lane::LinkX, ids.n_link, 10, 20, 3);

  const std::string json = obs::chrome_trace_json(rec);
  std::string error;
  std::size_t events = 0;
  EXPECT_TRUE(obs::validate_chrome_trace(json, error, &events)) << error;
  EXPECT_GT(events, 6u);  // the 6 records + metadata
}

TEST(Snapshot, JsonCarriesSchemaAndSparseBuckets) {
  obs::Recorder rec(obs::Config::collect(), 1);
  rec.seal();
  rec.observe(0, rec.std_ids().noc_msg_bytes, 1024);
  const std::string json = rec.snapshot().to_json();
  EXPECT_NE(json.find("\"schema\": \"rck-obs-metrics-v1\""), std::string::npos);
  // 1024 has bit width 11; the sparse encoding lists [bucket, count] pairs.
  EXPECT_NE(json.find("[11, 1]"), std::string::npos);
}

}  // namespace
