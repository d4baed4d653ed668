// rck_bench: one benchmark workload per process.
//
//   rck_bench --workload rs119-solo [--seed S] [--seconds T]
//             [--trace-out spans.json] [--json result.json]
//             [--golden benchmark/golden.json] [--record-golden]
//             [--smoke] [--allow-fallback]
//
// Prints the machine fingerprint and every metric by name with its unit,
// checks the simulated outputs (golden digest for seeds that have one, the
// kernel itself otherwise), and ends standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one (--trace-out). Exit codes: 0 correct, 1 wrong
// output or error, 2 unfit build (no optimisation, or no AVX2 without
// --allow-fallback).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "rck/core/simd_kernels.hpp"
#include "rck/harness/arg_parser.hpp"
#include "rck/obs/metrics.hpp"
#include "rck/obs/trace_check.hpp"

#ifndef RCK_BENCH_BUILD_TYPE
#define RCK_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rck;
using bench::Metric;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (benchmark/run.py checks that it does).
constexpr MetricDef kEndToEnd[] = {
    {"pairs_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

// Every traced run reports all of these; a layer the workload does not
// exercise reports 0 (see benchmark/README.md for which apply where).
constexpr MetricDef kPerLayer[] = {
    {"bio.build_dataset_s", "s"},
    {"core.tmalign_s", "s"},
    {"core.tmalign_share", "ratio"},
    {"core.dp_cells", "count"},
    {"core.dp_gcells_per_s", "Gcell/s"},
    {"core.align_batch_s", "s"},
    {"core.batch_over_solo", "ratio"},
    {"core.kernel_farm_s", "s"},
    {"rckalign.codec_s", "s"},
    {"rckalign.job_bytes", "bytes"},
    {"rckalign.cache_build_s", "s"},
    {"rckalign.cache_build_speedup", "ratio"},
    {"scc.replay_s", "s"},
    {"scc.events", "count"},
    {"scc.us_per_event", "us"},
    {"scc.run_fixed_ms", "ms"},
    {"scc.runs", "count"},
    {"noc.messages", "count"},
    {"noc.bytes", "bytes"},
    {"noc.hops", "count"},
    {"noc.queueing_s", "s"},
    {"rckskel.msgs_per_job", "ratio"},
    {"rckskel.master_blocked_frac", "ratio"},
    {"rckskel.slave_busy_frac", "ratio"},
    {"obs.overhead_frac", "ratio"},
    {"service.ctor_s", "s"},
    {"service.rounds", "count"},
    {"service.shed", "count"},
    {"service.jobs_per_round", "ratio"},
    {"service.drain_nominal_s", "s"},
    {"service.drain_overload_s", "s"},
    {"service.queries_per_s", "1/s"},
    {"service.sim_wait_p50_s", "s"},
    {"service.sim_wait_p90_s", "s"},
    {"service.sim_round_p50_s", "s"},
    {"attrib.residual_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"sim.makespan_s", "s"},
    {"sim.speedup", "ratio"},
    {"sim.p50_s", "s"},
    {"sim.p90_s", "s"},
    {"sim.capacity_qps", "1/s"},
};

/// Orders `got` as `defs`, filling absent metrics with 0; a metric not in
/// `defs`, or with another unit, is a bug in the benchmark.
template <std::size_t N>
std::vector<Metric> canonical(const MetricDef (&defs)[N], const std::vector<Metric>& got) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) out.push_back(Metric{d.name, 0.0, d.unit});
  for (const Metric& m : got) {
    const auto it = std::find_if(out.begin(), out.end(),
                                 [&](const Metric& o) { return o.name == m.name; });
    if (it == out.end() || it->unit != m.unit)
      throw std::logic_error("metric " + m.name + " [" + m.unit + "] is not declared");
    it->value = m.value;
  }
  return out;
}

struct Fingerprint {
  int nproc = 1;
  std::string cpu = "unknown";
  std::string simd;
  std::string build_type = RCK_BENCH_BUILD_TYPE;
  std::string compiler = __VERSION__;
};

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1U, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int k = 0; k < 3; ++k)
    __get_cpuid(0x80000002U + k, &regs[4 * k], &regs[4 * k + 1], &regs[4 * k + 2],
                &regs[4 * k + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
  s.erase(0, s.find_first_not_of(' '));
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// golden.json: {"schema": "rck-bench-golden-v1", "digests": {key: hex}}.
std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> out;
  const std::string text = read_file(path);
  if (text.empty()) return out;
  obs::JsonValue doc;
  std::string err;
  if (!obs::json_parse(text, doc, err)) throw std::runtime_error(path + ": " + err);
  const obs::JsonValue* d = doc.get("digests");
  if (d == nullptr || !d->is_object()) throw std::runtime_error(path + ": no digests");
  for (const auto& [k, v] : d->object)
    if (v.is_string()) out[k] = v.string;
  return out;
}

void save_golden(const std::string& path, const std::map<std::string, std::string>& g) {
  std::string out = "{\n  \"schema\": \"rck-bench-golden-v1\",\n  \"digests\": {";
  const char* sep = "\n";
  for (const auto& [k, v] : g) {
    out += sep;
    out += "    ";
    obs::append_json_escaped(out, k);
    out += ": ";
    obs::append_json_escaped(out, v);
    sep = ",\n";
  }
  out += "\n  }\n}\n";
  write_file(path, out);
}

void append_metrics(std::string& out, const std::vector<Metric>& ms) {
  out += "{";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    if (k > 0) out += ", ";
    obs::append_json_escaped(out, ms[k].name);
    out += ": {\"value\": ";
    obs::append_json_double(out, ms[k].value);
    out += ", \"unit\": ";
    obs::append_json_escaped(out, ms[k].unit);
    out += "}";
  }
  out += "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Compares the run's digest with its golden entry, or records it.
void check_golden(const bench::Options& opt, const std::string& path, bool record,
                  bench::Report& rep) {
  const std::string key = opt.workload + "/seed" + std::to_string(opt.seed) +
                          (opt.smoke ? "/smoke" : "");
  std::map<std::string, std::string> golden = load_golden(path);
  const std::string digest = hex(rep.digest);
  if (record) {
    golden[key] = digest;
    save_golden(path, golden);
    std::printf("golden: recorded %s = %s in %s\n", key.c_str(), digest.c_str(), path.c_str());
  } else if (const auto it = golden.find(key); it == golden.end()) {
    std::printf("golden: no entry for %s (digest %s); rows checked against the kernel\n",
                key.c_str(), digest.c_str());
  } else if (it->second == digest) {
    std::printf("golden: %s matches (digest %s)\n", key.c_str(), digest.c_str());
  } else {
    std::printf("golden: %s MISMATCH (digest %s)\n", key.c_str(), digest.c_str());
    rep.failed += 1;
    rep.problems.push_back("digest " + digest + " differs from golden " + it->second);
  }
}

/// The --json document: fingerprint, passes, every metric, span summaries.
std::string result_json(const bench::Options& opt, const Fingerprint& fp,
                        const bench::Report& rep, const std::vector<Metric>& e2e,
                        const std::vector<Metric>& layers,
                        const std::vector<bench::Spans::Summary>& spans) {
  std::string doc = "{\n  \"schema\": \"rck-bench-result-v1\",\n  \"workload\": ";
  obs::append_json_escaped(doc, opt.workload);
  doc += ",\n  \"seed\": ";
  obs::append_json_u64(doc, opt.seed);
  doc += ",\n  \"smoke\": ";
  doc += opt.smoke ? "true" : "false";
  doc += ",\n  \"traced\": ";
  doc += opt.traced ? "true" : "false";
  doc += ",\n  \"host\": {\"nproc\": ";
  obs::append_json_u64(doc, static_cast<std::uint64_t>(fp.nproc));
  doc += ", \"cpu\": ";
  obs::append_json_escaped(doc, fp.cpu);
  doc += ", \"simd\": ";
  obs::append_json_escaped(doc, fp.simd);
  doc += ", \"build_type\": ";
  obs::append_json_escaped(doc, fp.build_type);
  doc += ", \"compiler\": ";
  obs::append_json_escaped(doc, fp.compiler);
  doc += ", \"host_threads\": ";
  obs::append_json_u64(doc, static_cast<std::uint64_t>(opt.host_threads));
  doc += "},\n  \"digest\": ";
  obs::append_json_escaped(doc, hex(rep.digest));
  doc += ",\n  \"pass_s\": [";
  for (std::size_t k = 0; k < rep.pass_s.size(); ++k) {
    if (k > 0) doc += ", ";
    obs::append_json_double(doc, rep.pass_s[k]);
  }
  doc += "],\n  \"end_to_end\": ";
  append_metrics(doc, e2e);
  doc += ",\n  \"simulated\": ";
  append_metrics(doc, rep.sim);
  doc += ",\n  \"per_layer\": ";
  append_metrics(doc, layers);
  doc += ",\n  \"spans\": [";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    if (k > 0) doc += ", ";
    doc += "{\"name\": ";
    obs::append_json_escaped(doc, spans[k].name);
    doc += ", \"count\": ";
    obs::append_json_u64(doc, spans[k].count);
    doc += ", \"total_s\": ";
    obs::append_json_double(doc, spans[k].total_s);
    doc += ", \"self_s\": ";
    obs::append_json_double(doc, spans[k].self_s);
    doc += "}";
  }
  doc += "],\n  \"problems\": [";
  for (std::size_t k = 0; k < rep.problems.size(); ++k) {
    if (k > 0) doc += ", ";
    obs::append_json_escaped(doc, rep.problems[k]);
  }
  doc += "]\n}\n";
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  opt.workload = std::string(bench::kWorkloads[0]);
  std::string seed = "0";
  std::string trace_out;
  std::string json_out;
  std::string golden_path = "benchmark/golden.json";
  bool record_golden = false;
  bool allow_fallback = false;
  harness::ArgParser cli("rck_bench",
                         "Run one benchmark workload and print its metrics.");
  cli.choice("workload", &opt.workload, bench::kWorkloads, "workload to run")
      .option("seed", &seed, "input seed (0 = the datasets' built-in seeds)")
      .option("seconds", &opt.seconds, "main-phase passes repeat until this much is measured")
      .option("trace-out", &trace_out,
              "traced run: write host spans here as Chrome trace JSON and report "
              "per-layer metrics")
      .option("json", &json_out, "write the full result document here")
      .option("golden", &golden_path, "golden digest file")
      .flag("record-golden", &record_golden, "store this run's digest in the golden file")
      .flag("smoke", &opt.smoke, "tiny dataset and short traces, same schema")
      .flag("allow-fallback", &allow_fallback, "run without AVX2 kernels");
  try {
    if (!cli.parse(argc, argv)) return 0;
    opt.seed = std::stoull(seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rck_bench: %s\n", e.what());
    return 2;
  }
  opt.traced = !trace_out.empty();
  if (opt.smoke) opt.seconds = 0.0;

  Fingerprint fp;
  fp.nproc = online_cpus();
  fp.cpu = cpu_model();
  fp.simd = core::kern::simd_compiled() && core::kern::simd_enabled() ? "avx2" : "scalar";
  opt.host_threads = std::min(4, fp.nproc);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "rck_bench: built without optimisation (%s); timings would "
                       "not mean anything\n", fp.build_type.c_str());
  return 2;
#endif
  if (fp.simd != "avx2" && !allow_fallback) {
    std::fprintf(stderr, "rck_bench: AVX2 kernels unavailable; pass --allow-fallback "
                         "to measure the scalar fallback\n");
    return 2;
  }

  std::printf("rck_bench %s seed %llu%s%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.smoke ? " smoke" : "",
              opt.traced ? " traced" : "");
  std::printf("host: nproc %d, cpu \"%s\", simd %s, build %s, compiler %s, host threads %d\n",
              fp.nproc, fp.cpu.c_str(), fp.simd.c_str(), fp.build_type.c_str(),
              fp.compiler.c_str(), opt.host_threads);
  std::fflush(stdout);

  bench::Spans spans;
  spans.set_enabled(opt.traced);
  bench::Report rep;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  try {
    rep = bench::run_workload(opt, spans);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.e2e.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    check_golden(opt, golden_path, record_golden, rep);

    if (opt.traced) {
      const std::string trace = spans.chrome_json();
      std::string err;
      std::size_t events = 0;
      if (!obs::validate_chrome_trace(trace, err, &events)) {
        rep.failed += 1;
        rep.problems.push_back("span trace rejected by obs::validate_chrome_trace: " + err);
      }
      write_file(trace_out, trace);
      std::printf("trace: %zu events written to %s\n", events, trace_out.c_str());
      std::vector<Metric> got = rep.layers;
      got.insert(got.end(), rep.sim.begin(), rep.sim.end());
      layers = canonical(kPerLayer, got);
    }
    e2e = canonical(kEndToEnd, rep.e2e);

    std::printf("passes:");
    for (double s : rep.pass_s) std::printf(" %.3fs", s);
    std::printf("\n");
    print_metrics("end-to-end:", e2e);
    print_metrics("simulated (exact):", rep.sim);
    if (opt.traced) {
      print_metrics("per-layer:", layers);
      std::printf("span self time:\n  %-24s %8s %12s %12s\n", "name", "count", "total_s",
                  "self_s");
      for (const bench::Spans::Summary& s : spans.summaries())
        std::printf("  %-24s %8llu %12.6f %12.6f\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count), s.total_s, s.self_s);
    }
    for (const std::string& p : rep.problems) std::printf("PROBLEM: %s\n", p.c_str());
    if (!json_out.empty())
      write_file(json_out, result_json(opt, fp, rep, e2e, layers, spans.summaries()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rck_bench: %s\n", e.what());
    return 1;
  }

  const bool correct = rep.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": ";
  obs::append_json_u64(line, std::max<std::uint64_t>(1, rep.attempted));
  line += ", \"failed\": ";
  obs::append_json_u64(line, rep.failed);
  line += ", \"metrics\": ";
  append_metrics(line, opt.traced ? layers : e2e);
  line += "}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
