#include "rck/service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "rck/bio/serialize.hpp"
#include "rck/obs/sink.hpp"

namespace rck::service {

namespace {

/// Lower-triangular index of cell (i, j), i < j: column j's cells are the
/// contiguous range [j*(j-1)/2, j*(j+1)/2), which is what makes an
/// incremental add a pure append.
std::size_t tri_index(std::size_t i, std::size_t j) noexcept {
  return j * (j - 1) / 2 + i;
}

MatrixCell cell_of(const rckalign::PairRow& row) {
  MatrixCell c;
  c.tm_norm_a = row.tm_norm_a;
  c.tm_norm_b = row.tm_norm_b;
  c.rmsd = row.rmsd;
  c.seq_identity = row.seq_identity;
  c.aligned_length = row.aligned_length;
  return c;
}

/// Database structures must have residues: an empty chain has nothing to
/// align.
void check_entry(const bio::Protein& p) {
  if (p.empty())
    throw ServiceError("database structure '" + p.name() + "' has no residues");
}

std::string join_query_issues(const std::vector<ConfigIssue>& issues) {
  std::string msg = "rejected query";
  for (const ConfigIssue& issue : issues) {
    msg += "; ";
    msg += issue.field;
    msg += ": ";
    msg += issue.message;
  }
  return msg;
}

}  // namespace

Service::Service(std::vector<bio::Protein> database, RunConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.validated();
  round_opts_ = cfg_;
  // Rounds farm the database plus probes, not the dataset a cache is built
  // for. The service owns one lifetime recorder; per-round runtime obs/chk
  // would re-register and clobber each other, so rounds run bare.
  round_opts_.cache = nullptr;
  round_opts_.runtime.obs = obs::Config::off();
  round_opts_.runtime.chk = chk::Config{};

  obs::Config oc = cfg_.runtime.obs;
  oc.enable = true;        // the service always keeps its own metrics
  oc.trace_path.clear();   // rounds carry no recorder, so no trace either
  rec_ = std::make_shared<obs::Recorder>(oc, /*core_shards=*/1);
  obs::Registry& reg = rec_->registry();
  c_queries_ = reg.counter("service.queries", obs::Unit::Jobs);
  c_shed_ = reg.counter("service.shed", obs::Unit::Jobs);
  c_pair_jobs_ = reg.counter("service.pair_jobs", obs::Unit::Jobs);
  c_matrix_jobs_ = reg.counter("service.matrix_jobs", obs::Unit::Jobs);
  c_rounds_ = reg.counter("service.rounds");
  h_latency_ = reg.histogram("service.query_latency_ps", obs::Unit::Ps);
  h_round_ps_ = reg.histogram("service.round_ps", obs::Unit::Ps);
  h_round_jobs_ = reg.histogram("service.round_jobs", obs::Unit::Jobs);
  g_queue_depth_ = reg.gauge("service.queue_depth");
  rec_->seal();

  entries_.reserve(database.size());
  for (bio::Protein& p : database) {
    check_entry(p);
    entries_.push_back(std::move(p));
  }
  rebuild_tables();

  // Eager all-vs-all build: spec k is exactly matrix_[k] (tri_index order),
  // so the collected rows land by spec index without any remapping.
  const std::size_t n = entries_.size();
  if (n >= 2) {
    std::vector<rckalign::PairSpec> specs;
    specs.reserve(n * (n - 1) / 2);
    const rckalign::Method method = cfg_.methods.front();
    for (std::uint32_t j = 1; j < n; ++j)
      for (std::uint32_t i = 0; i < j; ++i)
        specs.push_back(rckalign::PairSpec{i, j, method});
    rckalign::PairsRun run = rckalign::run_pairs(db_ptrs_, specs, round_opts_);
    matrix_.resize(specs.size());
    for (const rckalign::PairRow& row : run.results)
      matrix_[row.spec] = cell_of(row);
    stats_.matrix_jobs += specs.size();
    rec_->add(0, c_matrix_jobs_, specs.size());
  }
}

void Service::rebuild_tables() {
  db_ptrs_.clear();
  db_ptrs_.reserve(entries_.size());
  for (const bio::Protein& p : entries_) db_ptrs_.push_back(&p);
}

const MatrixCell& Service::matrix_at(std::size_t i, std::size_t j) const {
  if (i == j || i >= entries_.size() || j >= entries_.size())
    throw ServiceError("matrix_at(" + std::to_string(i) + ", " +
                       std::to_string(j) + ") outside the " +
                       std::to_string(entries_.size()) + "-entry matrix");
  if (i > j) std::swap(i, j);
  return matrix_[tri_index(i, j)];
}

std::size_t Service::add_structure(bio::Protein p) {
  check_entry(p);
  const auto n = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(p));
  rebuild_tables();

  // Exactly n comparisons: the new column (i, n) for every existing i,
  // appended as one contiguous tail of the triangular matrix.
  if (n >= 1) {
    std::vector<rckalign::PairSpec> specs;
    specs.reserve(n);
    const rckalign::Method method = cfg_.methods.front();
    for (std::uint32_t i = 0; i < n; ++i)
      specs.push_back(rckalign::PairSpec{i, n, method});
    rckalign::PairsRun run = rckalign::run_pairs(db_ptrs_, specs, round_opts_);
    const std::size_t base = matrix_.size();
    matrix_.resize(base + n);
    for (const rckalign::PairRow& row : run.results)
      matrix_[base + row.spec] = cell_of(row);
    stats_.matrix_jobs += n;
    rec_->add(0, c_matrix_jobs_, n);
  }
  return n;
}

std::uint64_t Service::submit(Query q) {
  std::vector<ConfigIssue> issues = validate_query(q, entries_.size());
  if (!issues.empty()) throw ServiceError(join_query_issues(issues));
  const std::uint64_t id = next_id_++;
  pending_.push_back(Pending{id, std::move(q)});
  stats_.submitted += 1;
  rec_->add(0, c_queries_, 1);
  return id;
}

void Service::shed_query(Pending&& p, std::vector<QueryResult>& out) {
  stats_.shed += 1;
  rec_->add(0, c_shed_, 1);
  std::fprintf(stderr,
               "rck.service.overload: shed query %llu (%s, arrival %llu ps): "
               "admission queue full (%llu waiting, capacity %llu)\n",
               static_cast<unsigned long long>(p.id),
               std::string(query_kind_name(p.query.kind)).c_str(),
               static_cast<unsigned long long>(p.query.arrival),
               static_cast<unsigned long long>(waiting_.size()),
               static_cast<unsigned long long>(cfg_.service.queue_capacity));
  if (cfg_.service.fail_on_shed)
    throw OverloadError("query " + std::to_string(p.id) +
                        " shed with fail_on_shed set (queue capacity " +
                        std::to_string(cfg_.service.queue_capacity) + ")");
  QueryResult res;
  res.id = p.id;
  res.kind = p.query.kind;
  res.shed = true;
  res.arrival = p.query.arrival;
  res.completion = stats_.clock;
  out.push_back(std::move(res));
}

std::vector<QueryResult> Service::drain() {
  // Arrivals are processed in simulated order regardless of submit order.
  std::sort(pending_.begin(), pending_.end(),
            [](const Pending& a, const Pending& b) {
              if (a.query.arrival != b.query.arrival)
                return a.query.arrival < b.query.arrival;
              return a.id < b.id;
            });

  std::vector<QueryResult> results;
  const auto admit = [&] {
    std::size_t taken = 0;
    for (Pending& p : pending_) {
      if (p.query.arrival > stats_.clock) break;
      ++taken;
      if (waiting_.size() >= cfg_.service.queue_capacity) {
        shed_query(std::move(p), results);
      } else {
        waiting_.push_back(std::move(p));
      }
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(taken));
  };

  while (!pending_.empty() || !waiting_.empty()) {
    admit();
    if (waiting_.empty()) {
      if (pending_.empty()) break;
      // Idle: jump the clock to the next arrival instead of spinning.
      stats_.clock = std::max(stats_.clock, pending_.front().query.arrival);
      admit();
      continue;
    }

    // Round start: sample queue depth, then coalesce up to the round cap.
    rec_->set_gauge(0, g_queue_depth_,
                    static_cast<double>(waiting_.size()), stats_.clock);
    std::vector<Pending> round;
    while (!waiting_.empty() &&
           round.size() < cfg_.service.max_queries_per_round) {
      round.push_back(std::move(waiting_.front()));
      waiting_.pop_front();
    }

    // One shared structure table: the resident database, then every round
    // probe appended. The round's job build serializes each structure its
    // specs reference once.
    std::vector<const bio::Protein*> structures = db_ptrs_;
    std::vector<std::uint32_t> probe_base(round.size());
    for (std::size_t qi = 0; qi < round.size(); ++qi) {
      probe_base[qi] = static_cast<std::uint32_t>(structures.size());
      for (const bio::Protein& probe : round[qi].query.probes)
        structures.push_back(&probe);
    }

    // Coalesced spec list, per query contiguous; owner[k] maps spec k back
    // to its query's ordinal in the round.
    std::vector<rckalign::PairSpec> specs;
    std::vector<std::uint32_t> owner;
    for (std::size_t qi = 0; qi < round.size(); ++qi) {
      append_query_specs(round[qi].query, cfg_.methods, probe_base[qi],
                         entries_.size(), specs);
      owner.resize(specs.size(), static_cast<std::uint32_t>(qi));
    }

    rckalign::PairsRun run = rckalign::run_pairs(structures, specs, round_opts_);
    stats_.clock += static_cast<noc::SimTime>(run.makespan);
    stats_.busy += static_cast<noc::SimTime>(run.makespan);
    stats_.rounds += 1;
    stats_.query_jobs += specs.size();
    rec_->add(0, c_rounds_, 1);
    rec_->add(0, c_pair_jobs_, specs.size());
    rec_->observe(0, h_round_ps_, static_cast<std::uint64_t>(run.makespan));
    rec_->observe(0, h_round_jobs_, specs.size());

    // Demultiplex rows back to their queries and finish each result.
    std::vector<QueryResult> round_results(round.size());
    for (std::size_t qi = 0; qi < round.size(); ++qi) {
      QueryResult& res = round_results[qi];
      res.id = round[qi].id;
      res.kind = round[qi].query.kind;
      res.arrival = round[qi].query.arrival;
      res.makespan = run.makespan;
      res.completion = static_cast<std::uint64_t>(stats_.clock);
    }
    for (const rckalign::PairRow& row : run.results) {
      const std::uint32_t qi = owner[row.spec];
      round_results[qi].hits.push_back(
          query_hit(row, round[qi].query.kind, probe_base[qi]));
    }
    for (std::size_t qi = 0; qi < round.size(); ++qi) {
      QueryResult& res = round_results[qi];
      rank_query_hits(res.hits, cfg_.methods, round[qi].query.top_k);
      stats_.served += 1;
      rec_->observe(0, h_latency_,
                    static_cast<std::uint64_t>(res.completion - res.arrival));
      results.push_back(std::move(res));
    }
  }

  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              return a.id < b.id;
            });
  return results;
}

std::string Service::obs_json() const { return rec_->snapshot().to_json(); }

void Service::write_obs() const { obs::flush(rec_); }

}  // namespace rck::service
