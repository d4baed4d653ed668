#include "rck/core/ce_align.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rck/core/error.hpp"
#include "rck/core/kabsch.hpp"
#include "rck/core/tmscore.hpp"

namespace rck::core {

using bio::Vec3;

namespace {

/// Flat upper-storage distance matrix of one chain.
struct DistMatrix {
  explicit DistMatrix(const std::vector<Vec3>& ca) : n(ca.size()), d(n * n, 0.0) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = distance(ca[i], ca[j]);
        d[i * n + j] = dist;
        d[j * n + i] = dist;
      }
  }
  double operator()(std::size_t i, std::size_t j) const { return d[i * n + j]; }
  std::size_t n;
  std::vector<double> d;
};

/// Intra-fragment distance-pattern mismatch of AFP (i, j):
/// mean over k < l of |dA(i+k, i+l) - dB(j+k, j+l)|.
double afp_self_mismatch(const DistMatrix& da, const DistMatrix& db, int i, int j,
                         int m) {
  double sum = 0.0;
  int terms = 0;
  for (int k = 0; k + 1 < m; ++k)
    for (int l = k + 1; l < m; ++l) {
      sum += std::abs(da(static_cast<std::size_t>(i + k), static_cast<std::size_t>(i + l)) -
                      db(static_cast<std::size_t>(j + k), static_cast<std::size_t>(j + l)));
      ++terms;
    }
  return sum / static_cast<double>(terms);
}

/// Inter-fragment mismatch between one path AFP (pi, pj) and a candidate
/// (ci, cj): mean over sampled k, l of |dA(pi+k, ci+l) - dB(pj+k, cj+l)|.
/// Sampling stride 2 keeps the cost at m^2/4 per fragment pair.
double afp_cross_mismatch(const DistMatrix& da, const DistMatrix& db, int pi, int pj,
                          int ci, int cj, int m) {
  double sum = 0.0;
  int terms = 0;
  for (int k = 0; k < m; k += 2)
    for (int l = 0; l < m; l += 2) {
      sum += std::abs(da(static_cast<std::size_t>(pi + k), static_cast<std::size_t>(ci + l)) -
                      db(static_cast<std::size_t>(pj + k), static_cast<std::size_t>(cj + l)));
      ++terms;
    }
  return sum / static_cast<double>(terms);
}

/// Candidate-vs-whole-path mismatch: the average cross term over every
/// fragment already in the path. Long-range terms are what pin down the
/// register — a candidate shifted by two residues passes a nearest-fragment
/// check but fails against fragments far along the chain.
double path_cross_mismatch(const DistMatrix& da, const DistMatrix& db,
                           const std::vector<CeFragment>& path, int ci, int cj, int m,
                           AlignStats& stats) {
  double sum = 0.0;
  for (const CeFragment& f : path)
    sum += afp_cross_mismatch(da, db, f.i, f.j, ci, cj, m);
  stats.scored_pairs +=
      path.size() * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(m) / 4;
  return sum / static_cast<double>(path.size());
}

}  // namespace

CeResult ce_align(const bio::Protein& a, const bio::Protein& b, const CeOptions& opts) {
  const int m = opts.fragment_len;
  if (static_cast<int>(a.size()) < 2 * m || static_cast<int>(b.size()) < 2 * m)
    throw CoreError("ce_align: chains must have >= 2*fragment_len residues");

  const std::vector<Vec3> xa = a.ca_coords();
  const std::vector<Vec3> yb = b.ca_coords();
  const int n1 = static_cast<int>(xa.size());
  const int n2 = static_cast<int>(yb.size());

  CeResult out;
  AlignStats& stats = out.stats;

  const DistMatrix da(xa);
  const DistMatrix db(yb);
  stats.matrix_cells += static_cast<std::uint64_t>(n1) * n1 / 2 +
                        static_cast<std::uint64_t>(n2) * n2 / 2;

  // --- AFP similarity table -------------------------------------------------
  const int rows = n1 - m + 1;
  const int cols = n2 - m + 1;
  std::vector<double> sim(static_cast<std::size_t>(rows) * cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      sim[static_cast<std::size_t>(i) * cols + j] = afp_self_mismatch(da, db, i, j, m);
  stats.matrix_cells += static_cast<std::uint64_t>(rows) * cols *
                        static_cast<std::uint64_t>(m * (m - 1) / 2);

  auto sim_at = [&](int i, int j) { return sim[static_cast<std::size_t>(i) * cols + j]; };

  // --- Seeds: best AFPs below d1, spaced at least m/2 apart -----------------
  struct Seed {
    double s;
    int i, j;
  };
  std::vector<Seed> seeds;
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      if (sim_at(i, j) < opts.d1) seeds.push_back({sim_at(i, j), i, j});
  std::sort(seeds.begin(), seeds.end(), [](const Seed& x, const Seed& y) {
    if (x.s != y.s) return x.s < y.s;
    if (x.i != y.i) return x.i < y.i;
    return x.j < y.j;
  });
  std::vector<Seed> picked;
  for (const Seed& s : seeds) {
    bool close = false;
    for (const Seed& p : picked)
      if (std::abs(s.i - p.i) < m / 2 && std::abs(s.j - p.j) < m / 2) close = true;
    if (!close) picked.push_back(s);
    if (static_cast<int>(picked.size()) >= opts.max_seeds) break;
  }

  // --- Best-first path extension from each seed ------------------------------
  std::vector<CeFragment> best_path;
  double best_rmsd = std::numeric_limits<double>::infinity();

  std::vector<Vec3> pa, pb;
  for (const Seed& seed : picked) {
    std::vector<CeFragment> path{{seed.i, seed.j, m}};
    // Extend the chain greedily in both directions from the seed (CE builds
    // the optimal path through AFP space; bidirectional greedy extension is
    // the standard simplification).
    for (;;) {  // rightward
      stats.iterations += 1;
      const CeFragment& last = path.back();
      const int base_i = last.i + m;
      const int base_j = last.j + m;
      double best_cost = std::numeric_limits<double>::infinity();
      int bi = -1, bj = -1;
      for (int gi = 0; gi <= opts.max_gap; ++gi) {
        const int ci = base_i + gi;
        if (ci >= rows) break;
        for (int gj = 0; gj <= opts.max_gap; ++gj) {
          const int cj = base_j + gj;
          if (cj >= cols) break;
          const double self = sim_at(ci, cj);
          if (self >= opts.d1) continue;
          const double cross = path_cross_mismatch(da, db, path, ci, cj, m, stats);
          if (cross >= opts.d0) continue;
          // Small gap penalty: contiguous continuation wins ties (and
          // near-ties from floating-point noise on identical structures).
          const double cost = self + cross + 0.02 * (gi + gj);
          if (cost < best_cost) {
            best_cost = cost;
            bi = ci;
            bj = cj;
          }
        }
      }
      if (bi < 0) break;
      path.push_back({bi, bj, m});
    }
    for (;;) {  // leftward
      stats.iterations += 1;
      const CeFragment& first = path.front();
      double best_cost = std::numeric_limits<double>::infinity();
      int bi = -1, bj = -1;
      for (int gi = 0; gi <= opts.max_gap; ++gi) {
        const int ci = first.i - m - gi;
        if (ci < 0) break;
        for (int gj = 0; gj <= opts.max_gap; ++gj) {
          const int cj = first.j - m - gj;
          if (cj < 0) break;
          const double self = sim_at(ci, cj);
          if (self >= opts.d1) continue;
          const double cross = path_cross_mismatch(da, db, path, ci, cj, m, stats);
          if (cross >= opts.d0) continue;
          const double cost = self + cross + 0.02 * (gi + gj);
          if (cost < best_cost) {
            best_cost = cost;
            bi = ci;
            bj = cj;
          }
        }
      }
      if (bi < 0) break;
      // Prepend: append, then rotate the new fragment to the front.
      path.push_back({bi, bj, m});
      std::rotate(path.begin(), path.end() - 1, path.end());
    }

    // Evaluate: superposed RMSD over the path's residues.
    pa.clear();
    pb.clear();
    for (const CeFragment& f : path)
      for (int k = 0; k < f.len; ++k) {
        pa.push_back(xa[static_cast<std::size_t>(f.i + k)]);
        pb.push_back(yb[static_cast<std::size_t>(f.j + k)]);
      }
    const double rmsd = superposed_rmsd(pa, pb, &stats);
    const std::size_t len = pa.size();
    const std::size_t best_len = static_cast<std::size_t>(best_path.size()) * static_cast<std::size_t>(m);
    if (len > best_len || (len == best_len && rmsd < best_rmsd)) {
      best_path = path;
      best_rmsd = rmsd;
    }
  }

  if (best_path.empty()) return out;  // no acceptable AFP at all

  // --- Register refinement ----------------------------------------------
  // Periodic secondary structure (helices especially) makes fragments
  // self-similar under +-1/2-residue shifts, so the distance-pattern search
  // can assemble a path in the wrong register. CE's final step optimizes
  // the path under superposition; we do the equivalent: try small (di, dj)
  // shifts of each fragment, keeping monotonicity, and accept a shift when
  // it lowers the superposed RMSD of the whole path.
  {
    auto path_rmsd = [&](const std::vector<CeFragment>& path) {
      pa.clear();
      pb.clear();
      for (const CeFragment& f : path)
        for (int k = 0; k < f.len; ++k) {
          pa.push_back(xa[static_cast<std::size_t>(f.i + k)]);
          pb.push_back(yb[static_cast<std::size_t>(f.j + k)]);
        }
      return superposed_rmsd(pa, pb, &stats);
    };
    double current = path_rmsd(best_path);
    for (int pass = 0; pass < 3; ++pass) {
      bool improved = false;
      for (std::size_t f = 0; f < best_path.size(); ++f) {
        for (int di = -2; di <= 2; ++di) {
          for (int dj = -2; dj <= 2; ++dj) {
            if (di == 0 && dj == 0) continue;
            CeFragment cand = best_path[f];
            cand.i += di;
            cand.j += dj;
            if (cand.i < 0 || cand.j < 0 || cand.i + m > n1 || cand.j + m > n2)
              continue;
            // Monotone, non-overlapping with neighbours.
            if (f > 0) {
              const CeFragment& prev = best_path[f - 1];
              if (cand.i < prev.i + prev.len || cand.j < prev.j + prev.len) continue;
            }
            if (f + 1 < best_path.size()) {
              const CeFragment& next = best_path[f + 1];
              if (cand.i + cand.len > next.i || cand.j + cand.len > next.j) continue;
            }
            std::vector<CeFragment> trial = best_path;
            trial[f] = cand;
            const double r = path_rmsd(trial);
            if (r + 1e-9 < current) {
              best_path = std::move(trial);
              current = r;
              improved = true;
            }
          }
        }
      }
      if (!improved) break;
    }
  }

  out.path = best_path;
  pa.clear();
  pb.clear();
  for (const CeFragment& f : out.path)
    for (int k = 0; k < f.len; ++k) {
      pa.push_back(xa[static_cast<std::size_t>(f.i + k)]);
      pb.push_back(yb[static_cast<std::size_t>(f.j + k)]);
    }
  out.aligned_length = static_cast<int>(pa.size());
  const Superposition sup = superpose(pa, pb, &stats);
  out.rmsd = sup.rmsd;

  // TM-score of the CE path for cross-method comparability.
  const int lnorm = std::min(n1, n2);
  const double d0 = d0_of_length(lnorm);
  TmSearchOptions fast;
  fast.fast = true;
  const TmSearchResult tm = tmscore_search(pa, pb, lnorm, d0, fast, &stats);
  out.tm = tm.tm;
  out.transform = tm.transform;
  return out;
}

}  // namespace rck::core
