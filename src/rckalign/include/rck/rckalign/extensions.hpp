// Extensions the paper discusses but did not evaluate (Section V / VI):
//
//  1. Multi-criteria PSC (MC-PSC): "all slave processes are not required to
//     run the same PSC algorithm ... different slave processes can be
//     running different algorithms on the same data received from the
//     master". run_multi_method() partitions the slave cores between any
//     number of methods and farms every method's all-vs-all job stream from
//     one master, using the per-subtask UE restriction of the rckskel task
//     tree; the paper's two-criteria case is two groups (TM-align and
//     gapless RMSD). It is run_pairs() with one slave group per method.
//
//  2. Hierarchical masters: "this can be tackled by implementing a
//     hierarchy of master processes such that a master does not become a
//     bottleneck for the slaves it controls". run_hierarchical() puts a
//     root master over G group masters, each farming to its own slave set;
//     the root dispatches *batches* of jobs so a whole group stays busy.
#pragma once

#include <cstdint>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/rckalign/app.hpp"

namespace rck::rckalign {

/// MC-PSC: any number of methods, each with its own dedicated slave-core
/// group (the paper: "partition of cores to different tasks is
/// implementation specific ... facilitated using the library"). Groups take
/// consecutive slave ranks from 1 in order.
struct MethodGroup {
  Method method = Method::TmAlign;
  int slaves = 1;
};

struct MultiMethodOptions {
  scc::RuntimeConfig runtime{};
  std::vector<MethodGroup> groups;
  const PairCache* cache = nullptr;  ///< TM-align replay (optional)
  bool lpt = false;
};

struct MultiMethodRun {
  noc::SimTime makespan = 0;
  /// Results per group, same order as options.groups.
  std::vector<std::vector<PairRow>> results;
  std::vector<scc::CoreReport> core_reports;
};

/// All-vs-all under every group's method at once on one chip.
MultiMethodRun run_multi_method(const std::vector<bio::Protein>& dataset,
                                const MultiMethodOptions& opts);

struct HierarchyOptions {
  scc::RuntimeConfig runtime{};
  int group_count = 4;   ///< number of sub-masters (ranks 1..group_count)
  int slave_count = 40;  ///< total leaf slaves, split evenly across groups
  const PairCache* cache = nullptr;
};

struct HierarchyRun {
  noc::SimTime makespan = 0;
  std::vector<PairRow> results;
  std::vector<scc::CoreReport> core_reports;
};

/// Two-level master hierarchy over the same all-vs-all workload.
HierarchyRun run_hierarchical(const std::vector<bio::Protein>& dataset,
                              const HierarchyOptions& opts);

}  // namespace rck::rckalign
