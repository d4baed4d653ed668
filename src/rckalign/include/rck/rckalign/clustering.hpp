// Structural clustering over all-vs-all TM-scores.
//
// The downstream use of the paper's all-vs-all task: "retrieve a ranked
// list of proteins, where structurally similar proteins are ranked higher"
// and group a database into fold families. This module implements
// average-linkage agglomerative clustering (UPGMA) on the structural
// distance d(i, j) = 1 - max(TM_ij normalizations), cutting the dendrogram
// where linkage distance exceeds 1 - tm_threshold (TM > 0.5 ~ same fold).
#pragma once

#include <vector>

#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"

namespace rck::rckalign {

struct ClusterResult {
  /// chain index -> cluster id in [0, cluster_count); ids are assigned in
  /// order of each cluster's smallest member index (deterministic).
  std::vector<int> assignment;
  int cluster_count = 0;

  /// Dendrogram merge steps in order: clusters `a` and `b` (ids local to
  /// the agglomeration process) joined at linkage distance `height`.
  struct Merge {
    int a = 0;
    int b = 0;
    double height = 0.0;
  };
  std::vector<Merge> merges;

  /// Members of each cluster, sorted.
  std::vector<std::vector<int>> clusters() const;
};

/// Cluster from a pair cache (uses each pair's max TM normalization).
ClusterResult cluster_by_tm(const PairCache& cache, double tm_threshold = 0.5);

/// Cluster from collected PairRows (e.g. a PairsRun's results).
/// `n` is the chain count; missing pairs default to distance 1.
ClusterResult cluster_rows(std::size_t n, const std::vector<PairRow>& rows,
                           double tm_threshold = 0.5);

}  // namespace rck::rckalign
