// Micro-benchmarks (google-benchmark) for the compute kernels and the
// simulator primitives. These measure *host* performance of the library —
// useful for keeping the reproduction fast — and are distinct from the
// simulated-time tables produced by the bench_table* binaries.
#include <benchmark/benchmark.h>

#include "rck/bio/dataset.hpp"
#include "rck/bio/pdb_io.hpp"
#include "rck/bio/serialize.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/core/ce_align.hpp"
#include "rck/core/kabsch.hpp"
#include "rck/core/nw.hpp"
#include "rck/core/sec_struct.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/core/tmscore.hpp"
#include "rck/noc/event_queue.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckskel/job.hpp"
#include "rck/scc/runtime.hpp"

namespace {

using namespace rck;

bio::Protein protein_of(int len, std::uint64_t seed) {
  bio::Rng rng(seed);
  return bio::make_protein("bench", len, rng);
}

void BM_Kabsch(benchmark::State& state) {
  const auto p = protein_of(static_cast<int>(state.range(0)), 1);
  const auto q = protein_of(static_cast<int>(state.range(0)), 2);
  const auto x = p.ca_coords();
  const auto y = q.ca_coords();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::superpose(x, y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Kabsch)->Arg(50)->Arg(150)->Arg(500);

void BM_NeedlemanWunsch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::NwWorkspace ws;
  bio::Rng rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (auto _ : state) {
    state.PauseTiming();
    ws.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) ws.score(i, j) = u(rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ws.solve(-0.6));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(100)->Arg(300)->Arg(500);

void BM_SecondaryStructure(benchmark::State& state) {
  const auto p = protein_of(static_cast<int>(state.range(0)), 4);
  const auto ca = p.ca_coords();
  for (auto _ : state) benchmark::DoNotOptimize(core::assign_secondary_structure(ca));
}
BENCHMARK(BM_SecondaryStructure)->Arg(150)->Arg(500);

void BM_TmScoreSearch(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  const auto p = protein_of(len, 5);
  bio::Rng rng(6);
  const auto q = bio::perturb(p, "q", rng);
  const std::size_t n = std::min(p.size(), q.size());
  const auto xc = p.ca_coords();
  const auto yc = q.ca_coords();
  std::vector<bio::Vec3> xa(xc.begin(), xc.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<bio::Vec3> ya(yc.begin(), yc.begin() + static_cast<std::ptrdiff_t>(n));
  const double d0 = core::d0_of_length(static_cast<int>(n));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::tmscore_search(xa, ya, static_cast<int>(n), d0));
}
BENCHMARK(BM_TmScoreSearch)->Arg(100)->Arg(250);

void BM_TmAlignPair(benchmark::State& state) {
  const auto p = protein_of(static_cast<int>(state.range(0)), 7);
  const auto q = protein_of(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) benchmark::DoNotOptimize(core::tmalign(p, q));
}
BENCHMARK(BM_TmAlignPair)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_CeAlignPair(benchmark::State& state) {
  const auto p = protein_of(static_cast<int>(state.range(0)), 21);
  const auto q = protein_of(static_cast<int>(state.range(0)), 22);
  for (auto _ : state) benchmark::DoNotOptimize(core::ce_align(p, q));
}
BENCHMARK(BM_CeAlignPair)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_ProteinSerialize(benchmark::State& state) {
  const auto p = protein_of(static_cast<int>(state.range(0)), 9);
  for (auto _ : state) benchmark::DoNotOptimize(bio::serialize(p));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.wire_size()));
}
BENCHMARK(BM_ProteinSerialize)->Arg(150)->Arg(500);

void BM_WireChecksum(benchmark::State& state) {
  // The CRC-32C that seals every protocol frame and checkpoint.
  bio::Rng rng(11);
  bio::Bytes data(static_cast<std::size_t>(state.range(0)));
  for (std::byte& b : data) b = static_cast<std::byte>(rng() & 0xFF);
  for (auto _ : state) benchmark::DoNotOptimize(rckskel::wire_checksum(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireChecksum)->Arg(64)->Arg(11 * 1024);

void BM_JobFrameRoundTrip(benchmark::State& state) {
  // One farm JOB frame over a CK34 pair: seal on the master, verify and
  // parse on the slave.
  const std::vector<bio::Protein> ck34 = bio::build_dataset(bio::ck34_spec());
  rckskel::Job job;
  job.id = 1;
  job.payload = rckalign::encode_pair_job(0, 1, rckalign::Method::TmAlign, ck34[0], ck34[1]);
  std::int64_t frame_bytes = 0;
  for (auto _ : state) {
    bio::Bytes frame = rckskel::encode_job(job);
    frame_bytes = static_cast<std::int64_t>(frame.size());
    benchmark::DoNotOptimize(rckskel::decode_message(std::move(frame)));
  }
  state.SetBytesProcessed(state.iterations() * frame_bytes);
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}
BENCHMARK(BM_JobFrameRoundTrip);

void BM_PdbRoundTrip(benchmark::State& state) {
  const auto p = protein_of(200, 10);
  const std::string text = bio::to_pdb(p);
  for (auto _ : state) benchmark::DoNotOptimize(bio::parse_pdb(text, "x"));
}
BENCHMARK(BM_PdbRoundTrip);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    noc::EventQueue q;
    std::uint64_t x = 99;
    for (int k = 0; k < 10000; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      q.schedule_at(x % 1000000, [] {});
    }
    q.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueue);

void BM_MeshRouting(benchmark::State& state) {
  const noc::Mesh m(6, 4);
  for (auto _ : state) {
    for (int a = 0; a < 24; ++a)
      for (int b = 0; b < 24; ++b) benchmark::DoNotOptimize(m.xy_route(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 24 * 24);
}
BENCHMARK(BM_MeshRouting);

void BM_SimulatedFarm(benchmark::State& state) {
  // Host cost of simulating one small master-slaves farm end to end
  // (fiber-switch heavy: measures the simulator's overhead per job).
  const int slaves = static_cast<int>(state.range(0));
  for (auto _ : state) {
    scc::SpmdRuntime rt{scc::RuntimeConfig{}};
    rt.run(slaves + 1, [&](scc::CoreCtx& c) {
      if (c.rank() == 0) {
        std::vector<int> ids;
        for (int s = 1; s <= slaves; ++s) ids.push_back(s);
        for (int j = 0; j < 64; ++j) c.send(1 + (j % slaves), bio::Bytes(64));
        for (int j = 0; j < 64; ++j) {
          const int who = c.wait_any(ids);
          benchmark::DoNotOptimize(c.recv(who));
        }
      } else {
        for (int j = 0; j < 64 / slaves; ++j) {
          benchmark::DoNotOptimize(c.recv(0));
          c.charge(noc::kPsPerUs);
          c.send(0, bio::Bytes(16));
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatedFarm)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
