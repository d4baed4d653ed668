// Host-parallel execution bench: what does RuntimeConfig::host buy?
//
// Runs the CK34 all-vs-all *without* a PairCache, so every run executes its
// 561 real TM-align comparisons, once per host-thread setting, and reports
// the host wall-clock next to the (necessarily identical) simulated
// makespan. The farm driver pre-executes the comparisons on a pool of
// runtime.host.threads workers, one workspace each, and then replays their
// charges on the serial scheduler; the width therefore scales the kernel
// phase and leaves the simulation untouched. The simulated results are
// cross-checked byte-for-byte against the width-1 run: this bench doubles
// as an end-to-end determinism check at full kernel weight.
//
// Writes BENCH_host_parallel.json into the working directory. On a >= 4-core
// runner expect >= 2x wall-clock speedup at 4 host threads; on fewer cores
// the bench still verifies determinism, records the (flat) timings, and
// marks the JSON "undersubscribed" so downstream tooling does not read the
// flat curve as a regression.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/harness/arg_parser.hpp"
#include "rck/harness/tables.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/scc/runtime.hpp"

namespace {

using namespace rck;

struct Point {
  int host_threads = 1;
  double wall_s = 0.0;
  double speedup = 1.0;
};

rckalign::PairsRun run_once(const std::vector<bio::Protein>& dataset,
                               int slaves, int host_threads, double& wall_s) {
  rckalign::RckAlignOptions opts;
  opts.slave_count = slaves;
  opts.cache = nullptr;  // the run pre-executes every comparison itself
  opts.runtime.host.threads = host_threads;
  const auto t0 = std::chrono::steady_clock::now();
  rckalign::PairsRun run = rckalign::run_rckalign(dataset, opts);
  wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int slaves = 12;
  std::string json_path = "BENCH_host_parallel.json";
  bool force = false;
  harness::ArgParser cli("bench_host_parallel",
                         "Wall-clock speedup of kernel pre-execution on host threads.");
  cli.option("slaves", &slaves, "simulated slave cores")
      .option("json", &json_path, "output path for the bench JSON")
      .flag("force", &force,
            "overwrite a well-subscribed result file even when this host is "
            "undersubscribed (default: refuse, so a laptop run can't clobber "
            "the perf-smoke runner's speedup curve)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const harness::ArgError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const int hw = scc::HostParallelism::hardware().threads;
  const bool undersubscribed = hw < 4;
  std::cout << "Host-parallel bench: CK34 all-vs-all, " << slaves
            << " slaves, real TM-align kernels pre-executed on a host pool "
               "(no cache)\n"
            << "Host hardware threads: " << hw << "\n";
  if (undersubscribed) {
    std::cout
        << "\n"
        << "*** WARNING: only " << hw << " hardware thread(s) available. ***\n"
        << "*** Wall-clock speedup CANNOT materialize on this host; the  ***\n"
        << "*** timing curve below measures pool overhead, not the pool. ***\n"
        << "*** Re-run on a >= 4-core machine for speedups.              ***\n";
  }
  std::cout << "\n";
  const auto dataset = bio::build_dataset(bio::ck34_spec());

  std::vector<int> settings{1, 2, 4};
  if (hw > 4) settings.push_back(hw);
  settings.erase(std::unique(settings.begin(), settings.end()), settings.end());

  double serial_wall = 0.0;
  const rckalign::PairsRun serial = run_once(dataset, slaves, 1, serial_wall);

  std::vector<Point> points{{1, serial_wall, 1.0}};
  bool identical = true;
  for (std::size_t k = 1; k < settings.size(); ++k) {
    double wall = 0.0;
    const rckalign::PairsRun run = run_once(dataset, slaves, settings[k], wall);
    identical = identical && run.makespan == serial.makespan &&
                run.results == serial.results &&
                run.core_reports == serial.core_reports &&
                run.network == serial.network && run.events == serial.events;
    points.push_back({settings[k], wall, serial_wall / wall});
  }

  harness::TextTable table("Host wall-clock vs host threads (simulated results identical)");
  table.set_columns({"host threads", "wall s", "speedup"});
  for (const Point& p : points) {
    char wall[32], sp[32];
    std::snprintf(wall, sizeof wall, "%.2f", p.wall_s);
    std::snprintf(sp, sizeof sp, "%.2fx", p.speedup);
    table.add_row({std::to_string(p.host_threads), wall, sp});
  }
  table.print(std::cout);
  std::cout << "Simulated makespan: "
            << harness::fmt_seconds(noc::to_seconds(serial.makespan))
            << " (identical at every width)\n";

  std::ostringstream json;
  json << "{\n  \"bench\": \"host_parallel\",\n"
       << "  \"dataset\": \"ck34\",\n  \"slaves\": " << slaves << ",\n"
       << "  \"host_hardware_threads\": " << hw << ",\n"
       << "  \"undersubscribed\": " << (undersubscribed ? "true" : "false")
       << ",\n  \"simulated_makespan_s\": " << noc::to_seconds(serial.makespan)
       << ",\n  \"simulated_results_identical\": " << (identical ? "true" : "false")
       << ",\n  \"points\": [\n";
  for (std::size_t k = 0; k < points.size(); ++k) {
    const Point& p = points[k];
    json << "    {\"host_threads\": " << p.host_threads
         << ", \"wall_s\": " << p.wall_s
         << ", \"speedup\": " << p.speedup << "}"
         << (k + 1 < points.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  // An undersubscribed run must not silently replace a result recorded on a
  // machine that could actually parallelize: the curve would degrade from a
  // speedup measurement to a scheduling-overhead measurement without anyone
  // noticing. Refuse unless --force.
  if (undersubscribed && !force) {
    std::ifstream existing(json_path);
    bool well_subscribed = false;
    for (std::string line; std::getline(existing, line);)
      if (line.find("\"undersubscribed\": false") != std::string::npos)
        well_subscribed = true;
    if (well_subscribed) {
      std::cout << "REFUSING to overwrite " << json_path
                << ": it was recorded on a well-subscribed host (>= 4 "
                   "hardware threads) and this host has "
                << hw << "; pass --force to overwrite anyway\n";
      return 1;
    }
  }
  harness::write_file(json_path, json.str());
  std::cout << "JSON written to " << json_path << "\n";

  if (!identical) {
    std::cout << "SHAPE VIOLATION: parallel simulated results diverged from serial\n";
    return 1;
  }
  // The speedup claim only applies where the host can actually parallelize.
  if (!undersubscribed) {
    const double sp4 = points.back().speedup;
    const bool ok = sp4 >= 2.0;
    std::cout << (ok ? "SHAPE OK" : "SHAPE VIOLATION") << ": " << sp4
              << "x wall-clock speedup at " << points.back().host_threads
              << " host threads (>= 2x required on >= 4 cores)\n";
    return ok ? 0 : 1;
  }
  std::cout << "SHAPE SKIPPED: host has " << hw
            << " hardware thread(s); determinism verified, speedup not "
               "measurable here\n";
  return 0;
}
