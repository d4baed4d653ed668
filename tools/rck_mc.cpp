// rck_mc: bounded model-checking driver for the farm/failover/batch
// protocols (see DESIGN.md "Systematic exploration (rck::mc)").
//
// Runs rck::mc_explore over small synthetic configurations — a handful of
// structures, 2-4 slaves — where bounded exploration of same-instant
// schedule ties is cheap, and checks the protocol invariant suite on every
// explored schedule. The seeded protocol mutants (ProtocolMutant) turn the
// tool into its own acceptance test: each mutant must be caught with a
// replayable witness while the unmutated protocols explore clean.
//
// Examples:
//   rck_mc --config plain-farm                  # explore, exit 3 on violation
//   rck_mc --config ft --mutant double-grant    # must find lease_safety
//   rck_mc --replay witness.json --config ft --mutant double-grant
//   rck_mc --all                                # full acceptance matrix
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "rck/bio/synthetic.hpp"
#include "rck/harness/arg_parser.hpp"
#include "rck/rck.hpp"

using namespace rck;

namespace {

/// Deterministic micro-dataset: a few families of structurally related
/// chains with spread-out lengths, so per-pair costs differ enough that
/// slaves free up at different times (which is what exposes lease bugs).
std::vector<bio::Protein> make_dataset(int structures) {
  bio::Rng rng(0x5CC0FFEEull);
  static constexpr int kLengths[] = {34, 52, 71, 43, 87, 60, 38, 78};
  std::vector<bio::Protein> ds;
  ds.reserve(static_cast<std::size_t>(structures));
  for (int i = 0; i < structures; ++i) {
    const std::string name = "mc/s" + std::to_string(i);
    if (i % 3 == 2) {
      ds.push_back(bio::perturb(ds.back(), name, rng));
    } else {
      ds.push_back(bio::make_protein(name, kLengths[i % 8], rng));
    }
  }
  return ds;
}

struct ConfigSpec {
  std::string name;
  bool ft = false;         ///< fault-tolerant farm (leases, retries)
  bool master_ft = false;  ///< checkpointed master + standby failover
  std::size_t batch = 1;
  rckskel::ProtocolMutant mutant = rckskel::ProtocolMutant::None;
};

RunConfig make_config(const ConfigSpec& spec, int slaves,
                      const rckalign::PairCache* cache, std::uint64_t bound) {
  RunConfig cfg;
  cfg.with_slaves(slaves)
      .with_cache(cache)
      .with_batch(spec.batch)
      .with_mc_bound(bound)
      .with_mc_label(spec.name)
      .with_protocol_mutant(spec.mutant);
  if (spec.ft) cfg.with_fault_tolerance();
  if (spec.mutant == rckskel::ProtocolMutant::DropLeaseRenewal) {
    // The bug regrants every lease several times per execution, burning
    // attempts; a generous retry budget keeps the farm alive long enough
    // for a second slave to start the overlapping execution that the
    // lease_safety invariant catches.
    cfg.ft.max_attempts = 64;
  }
  if (spec.master_ft) {
    cfg.with_master_ft();
    // Tight cadence: several checkpoints reach the standby before the
    // mid-run master crash, which is what the stale-checkpoint invariant
    // needs to bite on.
    cfg.mft.checkpoint_every = 2;
  }
  return cfg;
}

/// master-ft runs crash the master mid-farm. The crash instant must be
/// deterministic yet config-dependent, so measure the config's own fault-
/// free makespan once (mc off) and crash at ~30% of it.
void add_master_crash(RunConfig& cfg,
                      const std::vector<bio::Protein>& dataset) {
  RunConfig probe = cfg;
  probe.mc = McConfig{};
  probe.ft.mutant = rckskel::ProtocolMutant::None;
  const RunResult r = rck::run(dataset, probe);
  cfg.runtime.faults.crashes.push_back(
      scc::FaultPlan::Crash{0, r.makespan * 3 / 10});
}

int print_outcome(const ConfigSpec& spec, const McOutcome& out, bool replayed) {
  std::printf("[%s] %s %llu schedule(s), max %zu decision points, "
              "canonical digest 0x%llx\n",
              spec.name.c_str(),
              replayed ? "replayed"
                       : (out.exhausted ? "exhausted tree after exploring"
                                        : "explored"),
              static_cast<unsigned long long>(out.schedules),
              out.max_decisions,
              static_cast<unsigned long long>(out.canonical_digest));
  if (out.violation) {
    std::printf("[%s] VIOLATION of %s at schedule %llu: %s\n",
                spec.name.c_str(), out.violation->invariant.c_str(),
                static_cast<unsigned long long>(out.witness.schedule),
                out.violation->detail.c_str());
    return 3;
  }
  std::printf("[%s] clean: invariants hold, matrix bit-identical on every "
              "explored schedule\n",
              spec.name.c_str());
  return 0;
}

/// One acceptance-matrix entry: explore `spec`, demand `expect` (empty =
/// clean), and for violations round-trip the witness through a strict
/// replay that must reproduce the same invariant.
bool run_case(const ConfigSpec& spec, const std::vector<bio::Protein>& dataset,
              const rckalign::PairCache& cache, int slaves,
              std::uint64_t bound, const std::string& expect,
              const std::string& witness_dir) {
  RunConfig cfg = make_config(spec, slaves, &cache, bound);
  const std::string witness_path =
      witness_dir + "/rck_mc_" + spec.name + ".json";
  if (!expect.empty()) cfg.with_mc_witness(witness_path);
  if (spec.master_ft) add_master_crash(cfg, dataset);
  const McOutcome out = mc_explore(dataset, cfg);
  print_outcome(spec, out, /*replayed=*/false);
  if (expect.empty()) {
    if (out.violation) {
      std::printf("[%s] FAIL: expected a clean exploration\n",
                  spec.name.c_str());
      return false;
    }
    return true;
  }
  if (!out.violation || out.violation->invariant != expect) {
    std::printf("[%s] FAIL: expected a %s violation, got %s\n",
                spec.name.c_str(), expect.c_str(),
                out.violation ? out.violation->invariant.c_str() : "none");
    return false;
  }
  // Witness round-trip: the saved schedule must replay deterministically
  // to the same violated invariant.
  RunConfig replay_cfg = cfg;
  replay_cfg.with_mc_witness("").with_mc_replay(witness_path);
  const McOutcome replayed = mc_replay(dataset, replay_cfg);
  if (!replayed.violation || replayed.violation->invariant != expect) {
    std::printf("[%s] FAIL: witness replay produced %s, expected %s\n",
                spec.name.c_str(),
                replayed.violation ? replayed.violation->invariant.c_str()
                                   : "no violation",
                expect.c_str());
    return false;
  }
  std::printf("[%s] witness %s replays to the same %s violation\n",
              spec.name.c_str(), witness_path.c_str(), expect.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_name = "plain-farm";
  std::string mutant_name = "none";
  std::string replay_path;
  std::string witness_path;
  std::string witness_dir = ".";
  int slaves = 3;
  int structures = 6;
  int bound = 256;
  bool all = false;

  static constexpr std::string_view kConfigs[] = {"plain-farm", "ft",
                                                  "master-ft", "batch"};
  static constexpr std::string_view kMutants[] = {
      "none", "drop-lease", "double-grant", "stale-checkpoint"};
  harness::ArgParser cli(
      "rck_mc",
      "Bounded schedule exploration + protocol invariant checking for the "
      "farm/failover/batch protocols on tiny synthetic datasets.");
  cli.choice("config", &config_name, kConfigs, "protocol configuration")
      .choice("mutant", &mutant_name, kMutants,
              "seed a known-broken protocol variant (must be caught)")
      .option("slaves", &slaves, "slave cores (2-4 keeps exploration cheap)")
      .option("structures", &structures, "synthetic dataset size")
      .option("bound", &bound, "max schedules explored (0 = exhaustive)")
      .option("witness", &witness_path,
              "write the first violating schedule's witness here")
      .option("replay", &replay_path,
              "replay a saved witness instead of exploring")
      .option("witness-dir", &witness_dir,
              "directory for the witnesses --all writes")
      .flag("all", &all,
            "run the acceptance matrix: clean exploration on plain-farm, "
            "ft, master-ft and batch; every mutant caught with a replayable "
            "witness");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const harness::ArgError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const std::vector<bio::Protein> dataset = make_dataset(structures);
  const rckalign::PairCache cache = rckalign::PairCache::build(dataset);
  const std::uint64_t bound_u =
      bound < 0 ? 0ull : static_cast<std::uint64_t>(bound);

  try {
    if (all) {
      const struct {
        ConfigSpec spec;
        const char* expect;  // violated invariant, or "" for clean
      } matrix[] = {
          {{"plain-farm"}, ""},
          {{"ft", true}, ""},
          {{"master-ft", true, true}, ""},
          {{"batch", false, false, 4}, ""},
          {{"ft-drop-lease", true, false, 1,
            rckskel::ProtocolMutant::DropLeaseRenewal},
           "no_reexec"},
          {{"ft-double-grant", true, false, 1,
            rckskel::ProtocolMutant::DoubleGrant},
           "lease_safety"},
          {{"master-ft-stale-checkpoint", true, true, 1,
            rckskel::ProtocolMutant::StaleCheckpointTakeover},
           "checkpoint_monotonic"},
      };
      bool ok = true;
      for (const auto& c : matrix)
        ok = run_case(c.spec, dataset, cache, slaves, bound_u, c.expect,
                      witness_dir) &&
             ok;
      std::printf("acceptance matrix: %s\n", ok ? "PASS" : "FAIL");
      return ok ? 0 : 1;
    }

    ConfigSpec spec;
    spec.name = config_name;
    spec.ft = config_name == "ft" || config_name == "master-ft";
    spec.master_ft = config_name == "master-ft";
    spec.batch = config_name == "batch" ? 4 : 1;
    if (mutant_name == "drop-lease")
      spec.mutant = rckskel::ProtocolMutant::DropLeaseRenewal;
    else if (mutant_name == "double-grant")
      spec.mutant = rckskel::ProtocolMutant::DoubleGrant;
    else if (mutant_name == "stale-checkpoint")
      spec.mutant = rckskel::ProtocolMutant::StaleCheckpointTakeover;
    if (spec.mutant != rckskel::ProtocolMutant::None && !spec.ft)
      spec.ft = true;  // every mutant lives in the fault-tolerant engine

    RunConfig cfg = make_config(spec, slaves, &cache, bound_u);
    cfg.with_mc_witness(witness_path).with_mc_replay(replay_path);
    if (spec.master_ft) add_master_crash(cfg, dataset);
    const bool replaying = !replay_path.empty();
    const McOutcome out =
        replaying ? mc_replay(dataset, cfg) : mc_explore(dataset, cfg);
    const int rc = print_outcome(spec, out, replaying);
    if (rc != 0 && !witness_path.empty())
      std::printf("[%s] witness written to %s (re-run with --replay)\n",
                  spec.name.c_str(), witness_path.c_str());
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
