#include "rck/rckalign/cost_cache.hpp"

#include <algorithm>

#include "rck/bio/seq_align.hpp"
#include "rck/core/ce_align.hpp"
#include "rck/core/rmsd_method.hpp"
#include "rck/rckalign/error.hpp"
#include "rck/rckalign/host_pool.hpp"

namespace rck::rckalign {

namespace {

/// Run one comparison of chain `a` onto chain `b`: the single kernel call
/// site behind both tables. `ws` is reused by TM-align.
PairEntry compare(const bio::Protein& a, const bio::Protein& b, Method method,
                  core::TmAlignWorkspace& ws, const core::TmAlignOptions& opts = {}) {
  PairEntry e;
  switch (method) {
    case Method::TmAlign: {
      const core::TmAlignResult& r = core::tmalign(a, b, ws, opts);
      e.tm_norm_a = r.tm_norm_a;
      e.tm_norm_b = r.tm_norm_b;
      e.rmsd = r.rmsd;
      e.seq_identity = r.seq_identity;
      e.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      e.stats = r.stats;
      break;
    }
    case Method::GaplessRmsd: {
      const core::RmsdResult r = core::best_gapless_rmsd(a, b);
      e.rmsd = r.rmsd;
      e.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      e.stats = r.stats;
      break;
    }
    case Method::CeAlign: {
      const core::CeResult r = core::ce_align(a, b);
      // CE reports a TM-score of its path (normalized by min length) for
      // comparability; both normalizations carry the same value.
      e.tm_norm_a = r.tm;
      e.tm_norm_b = r.tm;
      e.rmsd = r.rmsd;
      e.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      e.stats = r.stats;
      break;
    }
    case Method::SeqNw: {
      const bio::SeqAlignResult r = bio::seq_align(a.sequence(), b.sequence());
      e.seq_identity = r.identity();
      e.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      e.stats.dp_cells = 3 * r.dp_cells;  // Gotoh fills three matrices
      break;
    }
  }
  e.footprint_bytes = scc::CoreTimingModel::alignment_footprint(a.size(), b.size());
  return e;
}

}  // namespace

std::size_t PairCache::tri_index(std::uint32_t i, std::uint32_t j, std::size_t n) {
  if (i == j || i >= n || j >= n)
    throw AlignError("PairCache: bad pair indices");
  if (i > j) std::swap(i, j);
  // Index of (i, j), i < j, in row-major upper-triangle enumeration.
  return static_cast<std::size_t>(j) * (j - 1) / 2 + i;
}

PairCache PairCache::build(const std::vector<bio::Protein>& dataset, int host_threads,
                           const core::TmAlignOptions& opts) {
  PairCache cache;
  cache.n_ = dataset.size();
  const std::size_t pairs = cache.n_ * (cache.n_ - 1) / 2;
  cache.entries_.resize(pairs);

  // Flatten the (i < j) enumeration so workers can grab work by index.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> index(pairs);
  {
    std::size_t k = 0;
    for (std::uint32_t j = 1; j < cache.n_; ++j)
      for (std::uint32_t i = 0; i < j; ++i) index[k++] = {i, j};
  }
  run_pool<core::TmAlignWorkspace>(
      pairs, host_threads, [&](core::TmAlignWorkspace& ws, std::size_t k) {
        const auto [i, j] = index[k];
        cache.entries_[k] = compare(dataset[i], dataset[j], Method::TmAlign, ws, opts);
      });
  return cache;
}

const PairEntry& PairCache::at(std::uint32_t i, std::uint32_t j) const {
  return entries_[tri_index(i, j, n_)];
}

std::uint64_t PairCache::total_cycles(const scc::CoreTimingModel& model) const {
  std::uint64_t sum = 0;
  for (const PairEntry& e : entries_) sum += model.cycles(e.stats, e.footprint_bytes);
  return sum;
}

std::uint64_t PairCache::pair_cycles(std::uint32_t i, std::uint32_t j,
                                     const scc::CoreTimingModel& model) const {
  const PairEntry& e = at(i, j);
  return model.cycles(e.stats, e.footprint_bytes);
}

OutcomeTable OutcomeTable::build(std::span<const bio::Protein* const> structures,
                                 std::vector<PairSpec> keys, int host_threads,
                                 const PairCache* cache) {
  OutcomeTable table;
  table.cache_ = cache;
  if (cache != nullptr)
    std::erase_if(keys, [](const PairSpec& k) { return k.method == Method::TmAlign; });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const PairSpec& k : keys)
    if (k.a >= structures.size() || k.b >= structures.size() ||
        structures[k.a] == nullptr || structures[k.b] == nullptr)
      throw AlignError("OutcomeTable: key outside the structure table");
  table.keys_ = std::move(keys);
  table.entries_.resize(table.keys_.size());
  run_pool<core::TmAlignWorkspace>(
      table.keys_.size(), host_threads,
      [&](core::TmAlignWorkspace& ws, std::size_t k) {
        const PairSpec& key = table.keys_[k];
        table.entries_[k] =
            compare(*structures[key.a], *structures[key.b], key.method, ws);
      });
  return table;
}

const PairEntry& OutcomeTable::at(const PairSpec& key) const {
  if (cache_ != nullptr && key.method == Method::TmAlign) return cache_->at(key.a, key.b);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key)
    throw AlignError("OutcomeTable: no pre-executed outcome for job (" +
                     std::to_string(key.a) + ", " + std::to_string(key.b) +
                     ", method " + std::to_string(static_cast<int>(key.method)) + ")");
  return entries_[static_cast<std::size_t>(it - keys_.begin())];
}

}  // namespace rck::rckalign
