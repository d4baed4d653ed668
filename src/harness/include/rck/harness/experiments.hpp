// High-level drivers for the paper's experiments, shared by the bench
// binaries (which print paper-vs-measured tables) and the integration tests
// (which assert the qualitative claims).
#pragma once

#include <span>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/distributed.hpp"

namespace rck::harness {

/// Materialized datasets + per-pair caches for the paper's two workloads.
/// Building RS119's cache runs 7021 real TM-aligns; it uses host threads
/// and takes tens of seconds, so benches share one context.
struct ExperimentContext {
  std::vector<bio::Protein> ck34;
  std::vector<bio::Protein> rs119;
  rckalign::PairCache ck34_cache;
  rckalign::PairCache rs119_cache;

  /// Build both datasets and caches. host_threads <= 0: all hardware threads.
  static ExperimentContext load(int host_threads = 0);

  /// CK34 only (Experiment I / ablations that don't need RS119).
  static ExperimentContext load_ck34_only(int host_threads = 0);
};

/// Default runtime configuration used in every experiment: the stock SCC
/// chip with P54C cores.
scc::RuntimeConfig default_runtime();

// ---- Experiment I: rckAlign vs distributed TM-align (Table II / Fig 5) ----

struct Exp1Row {
  int slave_cores = 0;
  double rckalign_s = 0.0;
  double distributed_s = 0.0;
  /// Host wall-clock spent simulating the rckAlign point, milliseconds.
  /// Simulated seconds are the paper's result; this column shows what the
  /// simulation itself costs (and what the pre-execution pool buys).
  double host_ms = 0.0;
};

std::vector<Exp1Row> run_experiment1(const ExperimentContext& ctx,
                                     std::span<const int> core_counts);

// ---- Serial baselines (Table III) ------------------------------------------

struct BaselineTimes {
  double amd_ck34 = 0.0;
  double amd_rs119 = 0.0;
  double p54c_ck34 = 0.0;
  double p54c_rs119 = 0.0;
};

BaselineTimes run_baselines(const ExperimentContext& ctx);

// ---- Experiment II: speedup vs slave cores (Table IV / Fig 6) -------------

struct Exp2Row {
  int slave_cores = 0;
  double ck34_s = 0.0;
  double ck34_speedup = 0.0;
  double rs119_s = 0.0;
  double rs119_speedup = 0.0;
};

std::vector<Exp2Row> run_experiment2(const ExperimentContext& ctx,
                                     std::span<const int> core_counts);

/// One rckAlign sweep point (shared by both experiments).
double rckalign_seconds(const std::vector<bio::Protein>& dataset,
                        const rckalign::PairCache& cache, int slave_cores,
                        bool lpt = false);

// ---- Summary (Table V) ------------------------------------------------------

struct SummaryRow {
  const char* dataset = "";
  double tmalign_amd_s = 0.0;
  double tmalign_p54c_s = 0.0;
  double rckalign_scc_s = 0.0;  ///< 47 slave cores
};

std::vector<SummaryRow> run_summary(const ExperimentContext& ctx);

}  // namespace rck::harness
