// The four benchmark workloads. Each one has a set-up (repeated, median
// reported as setup_s), a timed main phase of whole passes, output checks,
// and — in a traced run — attribution passes that time each layer on its
// own through the layer's public API.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "rck/bio/dataset.hpp"
#include "rck/core/batch.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/service/loadgen.hpp"
#include "rck/service/service.hpp"

namespace rck::bench {

namespace {

constexpr int kSlaves = 47;
constexpr int kSweepSlaves[] = {1, 2, 4, 8, 16, 32, 47};
/// Farm grant size on rs119-batch4: one grant fills one kern::align_batch.
constexpr std::size_t kBatch = 4;
static_assert(kBatch == core::kern::kBatchLanes);
/// Rows re-aligned with core::tmalign in untraced runs (traced runs check
/// every row).
constexpr std::size_t kSpotChecks = 32;
/// Offered loads, simulated queries/s: about 60% of the service's capacity,
/// and past it.
constexpr double kNominalQps = 0.25;
constexpr double kOverloadQps = 1.0;
constexpr std::size_t kTraceQueries = 128;
constexpr std::size_t kSmokeQueries = 10;
constexpr std::size_t kQueueCapacity = 64;
/// Cheap repeated measurements (fixed run cost, replays) take the median of
/// this many samples.
constexpr int kRepeats = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= p[k];
      h *= 1099511628211ULL;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
};

template <class F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Scores a comparison reports, compared bit for bit.
struct Scores {
  double tm_a = 0.0;
  double tm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
};

bool same_bits(const Scores& x, const Scores& y) {
  return std::bit_cast<std::uint64_t>(x.tm_a) == std::bit_cast<std::uint64_t>(y.tm_a) &&
         std::bit_cast<std::uint64_t>(x.tm_b) == std::bit_cast<std::uint64_t>(y.tm_b) &&
         std::bit_cast<std::uint64_t>(x.rmsd) == std::bit_cast<std::uint64_t>(y.rmsd) &&
         std::bit_cast<std::uint64_t>(x.seq_identity) ==
             std::bit_cast<std::uint64_t>(y.seq_identity) &&
         x.aligned_length == y.aligned_length;
}

Scores scores_of(const core::TmAlignResult& r) {
  return {r.tm_norm_a, r.tm_norm_b, r.rmsd, r.seq_identity,
          static_cast<std::uint32_t>(r.aligned_length)};
}

/// One comparison of a workload: chain a onto chain b (i, j index the
/// workload's structure table) and, when the system reported it, its scores.
struct Job {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  const bio::Protein* a = nullptr;
  const bio::Protein* b = nullptr;
  std::optional<Scores> seen;
};

/// True when `r` names a pair of an n-chain table, a before b.
bool well_formed(const rckalign::PairRow& r, std::size_t n) {
  return r.i < r.j && r.j < n;
}

/// All unordered pairs of `data` in the farm master's FIFO order, with
/// reported scores from `rows` when given. Malformed rows are skipped here;
/// check_rows counts them.
std::vector<Job> all_pair_jobs(const std::vector<bio::Protein>& data,
                               const std::vector<rckalign::PairRow>* rows) {
  const std::size_t n = data.size();
  std::vector<Job> jobs;
  jobs.reserve(n * (n - 1) / 2);
  std::vector<std::size_t> at(n * n, SIZE_MAX);
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) {
      at[i * n + j] = jobs.size();
      jobs.push_back(Job{i, j, &data[i], &data[j], std::nullopt});
    }
  if (rows != nullptr)
    for (const rckalign::PairRow& r : *rows)
      if (well_formed(r, n))
        jobs[at[r.i * n + r.j]].seen =
            Scores{r.tm_norm_a, r.tm_norm_b, r.rmsd, r.seq_identity, r.aligned_length};
  return jobs;
}

/// All unordered pairs of `data`, with the cached entry as reported scores.
std::vector<Job> cached_jobs(const std::vector<bio::Protein>& data,
                             const rckalign::PairCache& cache) {
  std::vector<Job> jobs = all_pair_jobs(data, nullptr);
  for (Job& j : jobs) {
    const rckalign::PairEntry& e = cache.at(j.i, j.j);
    j.seen = Scores{e.tm_norm_a, e.tm_norm_b, e.rmsd, e.seq_identity, e.aligned_length};
  }
  return jobs;
}

/// Digest of one rck::run: makespan, then every row in (i, j) order. Without
/// `schedule`, only what was computed: no makespan and no worker ranks.
void digest_run(Fnv& f, const RunResult& run, bool schedule = true) {
  if (schedule) f.pod(run.makespan);
  std::vector<rckalign::PairRow> rows = run.results;
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.i != y.i ? x.i < y.i : x.j < y.j;
  });
  for (const rckalign::PairRow& r : rows) {
    f.pod(r.i);
    f.pod(r.j);
    f.pod(r.tm_norm_a);
    f.pod(r.tm_norm_b);
    f.pod(r.rmsd);
    f.pod(r.seq_identity);
    f.pod(r.aligned_length);
    if (schedule) f.pod(r.worker);
  }
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Jobs longest first by the farm's LPT key (chain length product), ties in
/// FIFO order.
std::vector<const Job*> lpt_order(std::span<const Job> jobs) {
  std::vector<const Job*> order;
  order.reserve(jobs.size());
  for (const Job& j : jobs) order.push_back(&j);
  std::stable_sort(order.begin(), order.end(), [](const Job* x, const Job* y) {
    return x->a->size() * x->b->size() > y->a->size() * y->b->size();
  });
  return order;
}

/// Jobs one kern::align_batch call takes: a farm grant on rs119-batch4.
using Grant = std::array<core::BatchItem, core::kern::kBatchLanes>;

struct KernelPass {
  double seconds = 0.0;
  std::uint64_t dp_cells = 0;
};

/// State and reporting shared by every workload.
class Bench {
 public:
  Bench(const Options& opt, Spans& spans) : opt_(opt), spans_(spans) {}

  const Options& opt() const { return opt_; }
  Spans& spans() { return spans_; }
  Report& report() { return rep_; }
  bool traced() const { return opt_.traced; }

  void e2e(std::string name, double v, std::string unit) {
    rep_.e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    rep_.layers.push_back({std::move(name), v, std::move(unit)});
  }
  void sim(std::string name, double v, std::string unit) {
    rep_.sim.push_back({std::move(name), v, std::move(unit)});
  }
  void fail(std::uint64_t n, std::string why) {
    rep_.failed += n;
    rep_.problems.push_back(std::move(why));
  }

  /// The spec a workload names, or the tiny dataset in smoke mode, with
  /// the seed override applied.
  bio::DatasetSpec spec(bio::DatasetSpec s) const {
    if (opt_.smoke) s = bio::tiny_spec();
    if (opt_.seed != 0) s.seed = opt_.seed;
    return s;
  }

  std::vector<bio::Protein> build(const bio::DatasetSpec& s) {
    auto sp = spans_.open("bio::build_dataset");
    return bio::build_dataset(s);
  }

  RunResult run(const std::vector<bio::Protein>& data, const RunConfig& cfg) {
    auto sp = spans_.open("rck::run");
    return rck::run(data, cfg);
  }

  rckalign::PairCache cache(const std::vector<bio::Protein>& data, int threads) {
    auto sp = spans_.open("PairCache::build");
    return rckalign::PairCache::build(data, threads);
  }

  /// Repeats one set-up at least three times and until three seconds have
  /// gone into it. On shared hosts a CPU's speed flips between a fast and a
  /// slow mode every second or so; a window of several seconds keeps the
  /// median of a cheap set-up from landing on whichever mode it started in.
  template <class F>
  double setup(F&& once) {
    auto sp = spans_.open("phase.setup");
    std::vector<double> t;
    double total = 0.0;
    while (t.size() < 3 || (total < 3.0 && t.size() < 1000)) {
      t.push_back(timed(once));
      total += t.back();
    }
    return median(t);
  }

  /// Untraced passes until opt.seconds have been measured; a traced run
  /// makes one untraced and one traced pass. `pass` returns its timed
  /// seconds and the digest of what it produced; every pass must agree.
  template <class F>
  void main_phase(F&& pass) {
    const bool was = spans_.enabled();
    spans_.set_enabled(false);
    double measured = 0.0;
    std::optional<std::uint64_t> first;
    const auto one = [&](const char* label) {
      const auto [seconds, digest] = pass();
      if (!first) first = digest;
      if (digest != *first)
        fail(1, std::string(label) + " pass produced a different digest");
      return seconds;
    };
    do {
      rep_.pass_s.push_back(one("untraced"));
      measured += rep_.pass_s.back();
    } while (!opt_.traced && measured < opt_.seconds);
    rep_.digest = *first;
    spans_.set_enabled(was);
    if (opt_.traced) {
      double traced_s = 0.0;
      {
        auto sp = spans_.open("phase.main");
        traced_s = one("traced");
      }
      layer("trace.overhead_frac", traced_s / rep_.pass_s.front() - 1.0, "ratio");
    }
  }

  double wall_s() const { return median(rep_.pass_s); }

  /// core::tmalign over `jobs` with one reused workspace, checking every
  /// reported row against it (stride 1) or a spread sample of them.
  KernelPass tmalign_pass(std::span<const Job> jobs, std::size_t stride) {
    auto sp = spans_.open("attrib.tmalign");
    core::TmAlignWorkspace ws;
    KernelPass out;
    std::uint64_t mismatched = 0;
    out.seconds = timed([&] {
      for (std::size_t k = 0; k < jobs.size(); k += stride) {
        const Job& job = jobs[k];
        auto call = spans_.open("core::tmalign");
        const core::TmAlignResult& r = core::tmalign(*job.a, *job.b, ws);
        out.dp_cells += r.stats.dp_cells;
        if (job.seen && !same_bits(*job.seen, scores_of(r))) ++mismatched;
      }
    });
    if (mismatched > 0)
      fail(mismatched, std::to_string(mismatched) +
                           " reported rows differ from core::tmalign bit for bit");
    return out;
  }

  /// The core.* layer metrics of one full tmalign pass; returns its seconds.
  double kernel_layers(std::span<const Job> jobs, double wall) {
    const KernelPass k = tmalign_pass(jobs, 1);
    layer("core.tmalign_s", k.seconds, "s");
    layer("core.tmalign_share", k.seconds / wall, "ratio");
    layer("core.dp_cells", static_cast<double>(k.dp_cells), "count");
    layer("core.dp_gcells_per_s", static_cast<double>(k.dp_cells) / k.seconds / 1e9,
          "Gcell/s");
    return k.seconds;
  }

  /// Spot check for untraced runs: re-align a spread sample of the rows the
  /// system reported.
  void spot_check(std::span<const Job> jobs) {
    std::vector<Job> seen;
    for (const Job& j : jobs)
      if (j.seen) seen.push_back(j);
    tmalign_pass(seen, std::max<std::size_t>(1, seen.size() / kSpotChecks));
  }

  /// The same jobs, longest first (the farm's LPT key), through
  /// kern::align_batch in full lane groups with one reused workspace.
  double align_batch_pass(std::span<const Job> jobs) {
    auto sp = spans_.open("attrib.align_batch");
    const std::vector<const Job*> order = lpt_order(jobs);
    core::BatchWorkspace ws;
    Grant items{};
    std::uint64_t mismatched = 0;
    const double s = timed([&] {
      for (std::size_t base = 0; base < order.size(); base += items.size()) {
        const std::size_t n = std::min(items.size(), order.size() - base);
        for (std::size_t k = 0; k < n; ++k)
          items[k] = core::BatchItem{order[base + k]->a, order[base + k]->b};
        {
          auto call = spans_.open("kern::align_batch");
          core::kern::align_batch(items.data(), n, ws);
        }
        for (std::size_t k = 0; k < n; ++k) {
          const Job& job = *order[base + k];
          if (job.seen && !same_bits(*job.seen, scores_of(ws.result(k)))) ++mismatched;
        }
      }
    });
    if (mismatched > 0)
      fail(mismatched, std::to_string(mismatched) +
                           " reported rows differ from kern::align_batch bit for bit");
    return s;
  }

  /// The kernel on the schedule the farm actually ran: every row of `run` is
  /// re-aligned on the workspace of the slave that reported it
  /// (PairRow::worker), in the order the master received the rows, and each
  /// slave's workspace is fresh on its first job, as in the farm. With
  /// `batch` > 1 a slave's rows, in order, form its grants of `batch` jobs
  /// (only a run's last grant can be smaller), each one kern::align_batch
  /// call.
  double farm_kernel_pass(const std::vector<bio::Protein>& data, const RunResult& run,
                          std::size_t batch) {
    auto sp = spans_.open("attrib.farm_kernel");
    // Grants in the order their last row reached the master.
    struct Pending {
      int worker = 0;
      std::size_t n = 0;
      Grant items{};
    };
    std::vector<Pending> grants;
    std::vector<Pending> open;  // indexed by worker rank
    for (const rckalign::PairRow& r : run.results) {
      if (!well_formed(r, data.size()) || r.worker < 0) continue;  // counted by check_rows
      const auto w = static_cast<std::size_t>(r.worker);
      if (w >= open.size()) open.resize(w + 1);
      Pending& p = open[w];
      p.worker = r.worker;
      p.items[p.n++] = core::BatchItem{&data[r.i], &data[r.j]};
      if (p.n == batch) {
        grants.push_back(p);
        p.n = 0;
      }
    }
    for (const Pending& p : open)
      if (p.n > 0) grants.push_back(p);

    std::vector<std::unique_ptr<core::TmAlignWorkspace>> solo(open.size());
    std::vector<std::unique_ptr<core::BatchWorkspace>> batched(open.size());
    return timed([&] {
      for (const Pending& g : grants) {
        const auto w = static_cast<std::size_t>(g.worker);
        if (batch > 1) {
          if (!batched[w]) batched[w] = std::make_unique<core::BatchWorkspace>();
          auto call = spans_.open("kern::align_batch");
          core::kern::align_batch(g.items.data(), g.n, *batched[w]);
          continue;
        }
        if (!solo[w]) solo[w] = std::make_unique<core::TmAlignWorkspace>();
        auto call = spans_.open("core::tmalign");
        core::tmalign(*g.items[0].a, *g.items[0].b, *solo[w]);
      }
    });
  }

  /// The four wire-codec calls of one farm job, for every job.
  void codec_layers(std::span<const Job> jobs) {
    auto sp = spans_.open("attrib.codec");
    std::uint64_t bytes = 0;
    std::uint64_t broken = 0;
    const double seconds = timed([&] {
      for (const Job& job : jobs) {
        bio::Bytes payload;
        {
          auto c = spans_.open("encode_pair_job");
          payload = rckalign::encode_pair_job(job.i, job.j, rckalign::Method::TmAlign,
                                              *job.a, *job.b);
        }
        bytes += payload.size();
        rckalign::PairOutcome o;
        {
          auto c = spans_.open("decode_pair_job");
          const rckalign::PairJobData d = rckalign::decode_pair_job(std::move(payload));
          if (d.i != job.i || d.j != job.j || d.a.size() != job.a->size() ||
              d.b.size() != job.b->size())
            ++broken;
          o.i = d.i;
          o.j = d.j;
        }
        const Scores s = job.seen.value_or(Scores{});
        o.tm_norm_a = s.tm_a;
        o.tm_norm_b = s.tm_b;
        o.rmsd = s.rmsd;
        o.seq_identity = s.seq_identity;
        o.aligned_length = s.aligned_length;
        bio::Bytes reply;
        {
          auto c = spans_.open("encode_outcome");
          reply = rckalign::encode_outcome(o);
        }
        bytes += reply.size();
        auto c = spans_.open("decode_outcome");
        const rckalign::PairOutcome back = rckalign::decode_outcome(std::move(reply));
        if (!same_bits(s, Scores{back.tm_norm_a, back.tm_norm_b, back.rmsd,
                                 back.seq_identity, back.aligned_length}))
          ++broken;
      }
    });
    if (broken > 0) fail(broken, std::to_string(broken) + " codec round trips differ");
    layer("rckalign.codec_s", seconds, "s");
    layer("rckalign.job_bytes", static_cast<double>(bytes), "bytes");
  }

  /// One rck::run of a single pair (the first two chains) with its result
  /// cached, at `cfg`'s slave count and host threads: the per-run cost of
  /// the simulator with no kernel in it. Median of kRepeats, in seconds.
  double fixed_run_s(const std::vector<bio::Protein>& data, RunConfig cfg) {
    auto sp = spans_.open("attrib.fixed_run");
    const std::vector<bio::Protein> two(data.begin(), data.begin() + 2);
    const rckalign::PairCache c = cache(two, 1);
    cfg.with_cache(&c);
    std::vector<double> t;
    for (int k = 0; k < kRepeats; ++k) t.push_back(timed([&] { run(two, cfg); }));
    return median(t);
  }

  /// Layer counters of the simulator from one rck::run; `events` counts the
  /// whole main phase.
  void sim_layers(const RunResult& r, std::size_t jobs, std::uint64_t events) {
    layer("scc.events", static_cast<double>(events), "count");
    layer("noc.messages", static_cast<double>(r.network.messages), "count");
    layer("noc.bytes", static_cast<double>(r.network.total_bytes), "bytes");
    layer("noc.hops", static_cast<double>(r.network.total_hops), "count");
    layer("noc.queueing_s", noc::to_seconds(r.network.total_queueing), "s");
    std::uint64_t msgs = 0;
    double slave_busy = 0.0;
    for (std::size_t k = 0; k < r.core_reports.size(); ++k) {
      msgs += r.core_reports[k].messages_sent;
      if (k > 0) slave_busy += noc::to_seconds(r.core_reports[k].busy);
    }
    const double span = noc::to_seconds(r.makespan);
    const double slaves = static_cast<double>(r.core_reports.size() - 1);
    layer("rckskel.msgs_per_job", static_cast<double>(msgs) / static_cast<double>(jobs),
          "ratio");
    layer("rckskel.master_blocked_frac",
          noc::to_seconds(r.core_reports.front().blocked) / span, "ratio");
    layer("rckskel.slave_busy_frac", slave_busy / (slaves * span), "ratio");
  }

  /// A cached replay of `cfg` over `data`, alternating plain and
  /// obs-collecting runs; sets scc.replay_s and obs.overhead_frac and checks
  /// that the replay computes the rows of `expect` (a schedule-free digest).
  /// The schedule itself may differ: under LPT a cached run orders jobs by
  /// their exact cycle cost rather than by chain lengths.
  double replay(const std::vector<bio::Protein>& data, RunConfig cfg,
                const rckalign::PairCache& c, std::uint64_t expect) {
    auto sp = spans_.open("attrib.replay");
    cfg.with_cache(&c);
    RunConfig collect = cfg;
    collect.with_collect();
    std::vector<double> plain, obs_on;
    for (int k = 0; k < kRepeats; ++k) {
      RunResult r;
      plain.push_back(timed([&] { r = run(data, cfg); }));
      obs_on.push_back(timed([&] { run(data, collect); }));
      Fnv f;
      digest_run(f, r, false);
      if (f.h != expect) fail(1, "cached replay rows differ from the main run's");
    }
    layer("scc.replay_s", median(plain), "s");
    layer("obs.overhead_frac", median(obs_on) / median(plain) - 1.0, "ratio");
    return median(plain);
  }

 private:
  const Options& opt_;
  Spans& spans_;
  Report rep_;
};

void check_rows(Bench& b, const RunResult& r, std::size_t n, const char* what) {
  std::vector<char> seen(n * n, 0);
  std::uint64_t bad = 0;
  for (const rckalign::PairRow& row : r.results) {
    if (!well_formed(row, n) || seen[row.i * n + row.j]++ != 0) ++bad;
  }
  const std::size_t expected = n * (n - 1) / 2;
  const std::size_t missing =
      r.results.size() - bad < expected ? expected - (r.results.size() - bad) : 0;
  if (bad + missing > 0)
    b.fail(bad + missing, std::string(what) + ": " + std::to_string(bad) +
                              " duplicate or malformed rows, " +
                              std::to_string(missing) + " missing");
}

// ---------------------------------------------------------------------------
// table-sweep-cached: the paper's Table II/IV loop over a PairCache.

void table_sweep(Bench& b) {
  const Options& o = b.opt();
  const bio::DatasetSpec ck_spec = b.spec(bio::ck34_spec());
  const bio::DatasetSpec rs_spec = b.spec(bio::rs119_spec());
  std::vector<bio::Protein> ck, rs;
  rckalign::PairCache ck_cache, rs_cache;
  std::vector<double> build_t, cache_t;
  b.e2e("setup_s", b.setup([&] {
    build_t.push_back(timed([&] {
      ck = b.build(ck_spec);
      rs = b.build(rs_spec);
    }));
    cache_t.push_back(timed([&] {
      ck_cache = b.cache(ck, o.host_threads);
      rs_cache = b.cache(rs, o.host_threads);
    }));
  }), "s");

  const std::size_t pairs = ck_cache.pair_count() + rs_cache.pair_count();
  const std::size_t runs = 2 * std::size(kSweepSlaves);
  std::vector<RunResult> last(runs);
  b.main_phase([&] {
    double s = 0.0;
    Fnv f;
    for (std::size_t k = 0; k < runs; ++k) {
      const bool big = k >= std::size(kSweepSlaves);
      RunConfig cfg;
      cfg.with_slaves(kSweepSlaves[k % std::size(kSweepSlaves)])
          .with_cache(big ? &rs_cache : &ck_cache);
      s += timed([&] { last[k] = b.run(big ? rs : ck, cfg); });
      digest_run(f, last[k]);
    }
    for (std::size_t k = 0; k < runs; ++k) {
      const bool big = k >= std::size(kSweepSlaves);
      const std::vector<bio::Protein>& data = big ? rs : ck;
      const rckalign::PairCache& c = big ? rs_cache : ck_cache;
      check_rows(b, last[k], data.size(), "sweep run");
      std::uint64_t wrong = 0;
      for (const rckalign::PairRow& row : last[k].results) {
        const rckalign::PairEntry& e = c.at(row.i, row.j);
        if (!same_bits(Scores{row.tm_norm_a, row.tm_norm_b, row.rmsd, row.seq_identity,
                              row.aligned_length},
                       Scores{e.tm_norm_a, e.tm_norm_b, e.rmsd, e.seq_identity,
                              e.aligned_length}))
          ++wrong;
      }
      if (wrong > 0) b.fail(wrong, "sweep rows differ from the PairCache entries");
    }
    b.report().attempted += runs * pairs / 2;
    return std::pair{s, f.h};
  });

  const double wall = b.wall_s();
  b.e2e("pairs_per_s", static_cast<double>(runs * pairs / 2) / wall, "1/s");
  const RunResult& rs_first = last[std::size(kSweepSlaves)];
  const RunResult& rs_last = last[runs - 1];
  b.sim("sim.makespan_s", noc::to_seconds(rs_last.makespan), "s");
  b.sim("sim.speedup",
        static_cast<double>(rs_first.makespan) / static_cast<double>(rs_last.makespan),
        "ratio");

  // The cache entries are what every sweep row replays: check them against
  // the kernel itself.
  std::vector<Job> jobs = cached_jobs(ck, ck_cache);
  const std::vector<Job> rs_jobs = cached_jobs(rs, rs_cache);
  jobs.insert(jobs.end(), rs_jobs.begin(), rs_jobs.end());
  if (!b.traced()) {
    b.spot_check(jobs);
    return;
  }

  b.layer("bio.build_dataset_s", median(build_t), "s");
  const double kernel_s = b.kernel_layers(jobs, wall);
  b.codec_layers(jobs);
  b.layer("rckalign.cache_build_s", median(cache_t), "s");
  b.layer("rckalign.cache_build_speedup", kernel_s / median(cache_t), "ratio");

  // The sweep is itself the cached replay; obs overhead is measured on its
  // largest run.
  RunConfig big;
  big.with_slaves(kSlaves);
  Fnv f;
  digest_run(f, rs_last, false);
  b.replay(rs, big, rs_cache, f.h);
  std::uint64_t events = 0;
  for (const RunResult& r : last) events += r.events;
  b.layer("scc.us_per_event", wall / static_cast<double>(events) * 1e6, "us");
  b.layer("scc.run_fixed_ms", b.fixed_run_s(rs, big) * 1e3, "ms");
  b.layer("scc.runs", static_cast<double>(runs), "count");
  b.sim_layers(rs_last, rs_cache.pair_count(), events);
}

// ---------------------------------------------------------------------------
// rs119-solo / rs119-batch4: one uncached rck::run of RS119 at 47 slaves.

void rs119(Bench& b, bool batched) {
  const Options& o = b.opt();
  const bio::DatasetSpec spec = b.spec(bio::rs119_spec());
  std::vector<bio::Protein> rs;
  std::vector<double> build_t;
  b.e2e("setup_s", b.setup([&] { build_t.push_back(timed([&] { rs = b.build(spec); })); }),
        "s");

  RunConfig cfg;
  cfg.with_slaves(kSlaves);
  if (batched) {
    cfg.with_lpt().with_batch(kBatch).with_host_threads(1);
  } else {
    cfg.with_host_threads(o.host_threads);
  }
  const std::size_t pairs = rs.size() * (rs.size() - 1) / 2;
  RunResult last;
  b.main_phase([&] {
    const double s = timed([&] { last = b.run(rs, cfg); });
    check_rows(b, last, rs.size(), "rs119 run");
    b.report().attempted += pairs;
    Fnv f;
    digest_run(f, last);
    return std::pair{s, f.h};
  });

  const double wall = b.wall_s();
  b.e2e("pairs_per_s", static_cast<double>(pairs) / wall, "1/s");
  b.sim("sim.makespan_s", noc::to_seconds(last.makespan), "s");

  const std::vector<Job> jobs = all_pair_jobs(rs, &last.results);
  if (!b.traced()) {
    b.spot_check(jobs);
    return;
  }

  b.layer("bio.build_dataset_s", median(build_t), "s");
  const double solo_s = b.kernel_layers(jobs, wall);
  const double batch_s = b.align_batch_pass(jobs);
  b.layer("core.align_batch_s", batch_s, "s");
  b.layer("core.batch_over_solo", batch_s / solo_s, "ratio");
  b.codec_layers(jobs);

  rckalign::PairCache cache;
  const double cache_s = timed([&] { cache = b.cache(rs, o.host_threads); });
  b.layer("rckalign.cache_build_s", cache_s, "s");
  b.layer("rckalign.cache_build_speedup", solo_s / cache_s, "ratio");

  Fnv f;
  digest_run(f, last, false);
  const double replay_s = b.replay(rs, cfg, cache, f.h);
  b.layer("scc.us_per_event", replay_s / static_cast<double>(last.events) * 1e6, "us");
  b.layer("scc.run_fixed_ms", b.fixed_run_s(rs, cfg) * 1e3, "ms");
  b.layer("scc.runs", 1.0, "count");
  b.sim_layers(last, pairs, last.events);
  const double farm_s = b.farm_kernel_pass(rs, last, batched ? kBatch : 1);
  b.layer("core.kernel_farm_s", farm_s, "s");
  // The replay already contains the codec work and the run's fixed cost.
  b.layer("attrib.residual_frac", (wall - farm_s - replay_s) / wall, "ratio");
}

// ---------------------------------------------------------------------------
// service-open-loop: open-loop Poisson traces against a resident CK34
// database, one fresh Service per offered load.

struct Level {
  double rate_qps = 0.0;
  const char* drain_metric = "";
  std::vector<Query> trace;
  std::vector<QueryResult> results;
  service::Stats stats{};
  double drain_s = 0.0;
};

/// Checks one level's results and appends the comparisons of its served
/// queries to `jobs` (probe onto entry, with the reported scores for the
/// hits kept). A shed query must come back shed and empty; which queries
/// the admission queue sheds is fixed by the golden digest.
void check_level(Bench& b, const std::vector<bio::Protein>& db, const Level& lv,
                 std::vector<Job>& jobs) {
  const auto n = static_cast<std::uint32_t>(db.size());
  if (lv.results.size() != lv.trace.size())
    b.fail(lv.trace.size(), "service returned " + std::to_string(lv.results.size()) +
                                " results for " + std::to_string(lv.trace.size()) +
                                " queries");
  std::uint64_t bad = 0;
  for (std::size_t qi = 0; qi < lv.results.size() && qi < lv.trace.size(); ++qi) {
    const QueryResult& r = lv.results[qi];
    const Query& q = lv.trace[qi];
    if (r.id != qi + 1 || r.completion < r.arrival || (r.shed && !r.hits.empty())) {
      ++bad;
      continue;
    }
    if (r.shed) continue;
    // Structure-table indices: the database, then this query's probes.
    const std::size_t base = jobs.size();
    if (q.kind == QueryKind::Pair) {
      jobs.push_back(Job{n, n + 1, &q.probes[0], &q.probes[1], std::nullopt});
    } else {
      for (std::uint32_t p = 0; p < q.probes.size(); ++p)
        for (std::uint32_t e = 0; e < n; ++e)
          jobs.push_back(Job{n + p, e, &q.probes[p], &db[e], std::nullopt});
    }
    const std::size_t cap = q.top_k == 0 ? n : std::min<std::size_t>(q.top_k, n);
    const std::size_t want = q.kind == QueryKind::Pair ? 1 : q.probes.size() * cap;
    if (r.hits.size() != want) ++bad;
    for (const QueryHit& h : r.hits) {
      const bool pair = q.kind == QueryKind::Pair;
      if (h.probe >= q.probes.size() || (pair ? h.entry != 1 : h.entry >= n)) {
        ++bad;
        continue;
      }
      Job& j = jobs[base + (pair ? 0 : h.probe * n + h.entry)];
      j.seen = Scores{h.tm_query, h.tm_entry, h.rmsd, h.seq_identity, h.aligned_length};
    }
  }
  const auto shed = static_cast<std::uint64_t>(std::count_if(
      lv.results.begin(), lv.results.end(), [](const QueryResult& r) { return r.shed; }));
  if (shed != lv.stats.shed || lv.results.size() - shed != lv.stats.served) ++bad;
  if (bad > 0) b.fail(bad, std::to_string(bad) + " service results malformed");
}

void service_open_loop(Bench& b) {
  const Options& o = b.opt();
  const bio::DatasetSpec spec = b.spec(bio::ck34_spec());
  RunConfig cfg;
  // At the overload level the queue fills and the service sheds queries.
  // Sheds are deterministic for a seed and are part of the checked output.
  cfg.with_slaves(kSlaves).with_max_queries_per_round(16).with_queue_capacity(kQueueCapacity);
  const std::size_t queries = o.smoke ? kSmokeQueries : kTraceQueries;

  std::vector<bio::Protein> db;
  std::deque<std::unique_ptr<service::Service>> ready;
  std::vector<double> build_t, ctor_t;
  const auto make_service = [&] {
    auto sp = b.spans().open("Service::Service");
    ready.push_back(std::make_unique<service::Service>(db, cfg));
  };
  b.e2e("setup_s", b.setup([&] {
    build_t.push_back(timed([&] { db = b.build(spec); }));
    ctor_t.push_back(timed(make_service));
    if (ready.size() > 2) ready.pop_front();
  }), "s");

  std::vector<Level> levels{{kNominalQps, "service.drain_nominal_s", {}, {}, {}, 0.0},
                            {kOverloadQps, "service.drain_overload_s", {}, {}, {}, 0.0}};
  for (Level& lv : levels) {
    service::TraceOptions t;
    if (o.seed != 0) t.seed = o.seed;
    t.queries = queries;
    t.rate_qps = lv.rate_qps;
    lv.trace = service::generate_trace(db, t);
  }

  std::uint64_t pair_jobs = 0;
  b.main_phase([&] {
    double s = 0.0;
    Fnv f;
    pair_jobs = 0;
    for (Level& lv : levels) {
      if (ready.empty()) make_service();  // untimed: set-up of the next level
      std::unique_ptr<service::Service> svc = std::move(ready.front());
      ready.pop_front();
      lv.drain_s = timed([&] {
        for (const Query& q : lv.trace) {
          auto sp = b.spans().open("Service::submit");
          svc->submit(q);
        }
        auto sp = b.spans().open("Service::drain");
        lv.results = svc->drain();
      });
      s += lv.drain_s;
      lv.stats = svc->stats();
      pair_jobs += lv.stats.query_jobs;
      for (const QueryResult& r : lv.results) {
        const std::string js = r.to_json();
        f.bytes(js.data(), js.size());
      }
      b.report().attempted += lv.trace.size();
    }
    return std::pair{s, f.h};
  });

  const double wall = b.wall_s();
  b.e2e("pairs_per_s", static_cast<double>(pair_jobs) / wall, "1/s");

  std::vector<Job> jobs;
  for (const Level& lv : levels) check_level(b, db, lv, jobs);

  const Level& nominal = levels[0];
  const Level& overload = levels[1];
  std::vector<double> latency, wait, round;
  for (const QueryResult& r : nominal.results) {
    if (r.shed) continue;
    latency.push_back(noc::to_seconds(r.completion - r.arrival));
    wait.push_back(noc::to_seconds(r.completion - r.arrival - r.makespan));
    round.push_back(noc::to_seconds(r.makespan));
  }
  b.sim("sim.p50_s", percentile(latency, 0.5), "s");
  b.sim("sim.p90_s", percentile(latency, 0.9), "s");
  b.sim("sim.capacity_qps",
        static_cast<double>(overload.stats.served) / noc::to_seconds(overload.stats.clock),
        "1/s");

  if (!b.traced()) {
    b.spot_check(jobs);
    return;
  }

  std::uint64_t rounds = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  for (const Level& lv : levels) {
    rounds += lv.stats.rounds;
    served += lv.stats.served;
    shed += lv.stats.shed;
    b.layer(lv.drain_metric, lv.drain_s, "s");
  }
  b.layer("bio.build_dataset_s", median(build_t), "s");
  b.layer("service.ctor_s", median(ctor_t), "s");
  b.layer("service.rounds", static_cast<double>(rounds), "count");
  b.layer("service.shed", static_cast<double>(shed), "count");
  b.layer("service.jobs_per_round",
          static_cast<double>(pair_jobs) / static_cast<double>(rounds), "ratio");
  b.layer("service.queries_per_s", static_cast<double>(served) / wall, "1/s");
  b.layer("service.sim_wait_p50_s", percentile(wait, 0.5), "s");
  b.layer("service.sim_wait_p90_s", percentile(wait, 0.9), "s");
  b.layer("service.sim_round_p50_s", percentile(round, 0.5), "s");

  // QueryResult keeps only each query's top hits, so which slave ran the
  // other comparisons is not visible: the kernel term is the warm
  // core::tmalign loop, and the farm's cost of cold workspaces stays in the
  // residual.
  const double kernel_s = b.kernel_layers(jobs, wall);
  b.codec_layers(jobs);

  // The service's rounds are run_pairs executions the public API cannot
  // replay from a cache. Estimate their simulator cost from a cached
  // all-vs-all replay of the database at the same width: a fixed cost per
  // run plus a per-job cost.
  const double fixed_s = b.fixed_run_s(db, cfg);
  double per_job_s = 0.0;
  {
    auto sp = b.spans().open("attrib.replay");
    const rckalign::PairCache cache = b.cache(db, o.host_threads);
    RunConfig replay_cfg = cfg;
    replay_cfg.with_cache(&cache);
    std::vector<double> t;
    for (int r = 0; r < kRepeats; ++r) t.push_back(timed([&] { b.run(db, replay_cfg); }));
    per_job_s = std::max(0.0, median(t) - fixed_s) / static_cast<double>(cache.pair_count());
  }
  const double replay_s =
      static_cast<double>(rounds) * fixed_s + static_cast<double>(pair_jobs) * per_job_s;
  b.layer("scc.replay_s", replay_s, "s");
  b.layer("scc.run_fixed_ms", fixed_s * 1e3, "ms");
  b.layer("scc.runs", static_cast<double>(rounds), "count");
  b.layer("attrib.residual_frac", (wall - kernel_s - replay_s) / wall, "ratio");
}

}  // namespace

Report run_workload(const Options& opt, Spans& spans) {
  Bench b(opt, spans);
  if (opt.workload == "table-sweep-cached") {
    table_sweep(b);
  } else if (opt.workload == "rs119-solo") {
    rs119(b, false);
  } else if (opt.workload == "rs119-batch4") {
    rs119(b, true);
  } else if (opt.workload == "service-open-loop") {
    service_open_loop(b);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return std::move(b.report());
}

}  // namespace rck::bench
