// Shared declarations of the rck_bench benchmark program.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace rck::bench {

/// The workloads, in BENCHMARK.json order.
inline constexpr std::string_view kWorkloads[] = {
    "table-sweep-cached", "rs119-solo", "rs119-batch4", "service-open-loop"};

struct Options {
  std::string workload;
  /// 0 keeps the dataset specs' and the trace generator's built-in seeds;
  /// anything else overrides all of them.
  std::uint64_t seed = 0;
  /// Main-phase passes repeat until this much time has been measured (at
  /// least one pass).
  double seconds = 10.0;
  /// Traced run: one untraced and one traced main pass, then the per-layer
  /// attribution passes.
  bool traced = false;
  /// Tiny dataset and short traces, same schema.
  bool smoke = false;
  /// Host threads for PairCache::build and rs119-solo: min(4, nproc).
  int host_threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> e2e;     ///< host metrics of untraced passes
  std::vector<Metric> layers;  ///< per-layer metrics (traced runs only)
  std::vector<Metric> sim;     ///< exact simulated values
  std::vector<double> pass_s;  ///< every untraced main-phase pass
  std::uint64_t digest = 0;    ///< golden digest of the simulated outputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per correctness failure
};

/// Runs one workload. Throws rck::Error or std::exception on failures that
/// are not output mismatches (those are counted in Report::failed).
Report run_workload(const Options& opt, Spans& spans);

}  // namespace rck::bench
