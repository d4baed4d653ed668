#include "rck/chk/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>

namespace rck::chk::lint {

namespace {

bool is_ident(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

/// Identifiers banned outright inside the simulation libraries. Matched as
/// whole identifiers on stripped text, so comments don't fire.
constexpr std::string_view kDeterminismBans[] = {
    "rand",          "srand",         "drand48",
    "random_device", "mt19937",       "mt19937_64",
    "minstd_rand",   "default_random_engine",
    "system_clock",  "steady_clock",  "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

/// PR 3 SIMD kernel hot-path files: allocation-free by contract
/// (tests/core/test_alloc_free.cpp asserts it dynamically; the lint rule
/// keeps the ban visible at review time). The round-2 batch kernel runs the
/// same per-pair hot path K lanes wide, so it inherits the contract; its
/// grow-only capacity warms carry explicit waivers.
constexpr std::string_view kHotPathFiles[] = {
    "src/core/simd.hpp",
    "src/core/simd_kernels.cpp",
    "src/core/simd_kernels_avx2.cpp",
    "src/core/simd_kernels_impl.hpp",
    "src/core/kabsch.cpp",
    "src/core/batch.cpp",
};

constexpr std::string_view kHotPathBans[] = {
    "malloc", "calloc",       "realloc",      "push_back", "emplace_back",
    "resize", "reserve",      "emplace",      "insert",    "shrink_to_fit",
};

/// Every stable error code minted so far — the dotted codes carried by the
/// rck::Error taxonomy (see DESIGN.md, "Error taxonomy"). A code-shaped
/// string literal (`rck.<family>.<leaf>`) outside this registry is either a
/// typo or an unregistered family; new codes extend this table in the same
/// PR that mints them. The `rck.skel.checkpoint` family covers the PR 6
/// snapshot codec (checksum mismatch, truncation, version skew).
constexpr std::string_view kKnownErrorCodes[] = {
    "rck.align.invalid",    "rck.bio.data",      "rck.bio.pdb",
    "rck.bio.wire",         "rck.chk.io",        "rck.chk.misuse",
    "rck.chk.race",         "rck.cli.args",      "rck.config.invalid",
    "rck.core.invalid",     "rck.harness.io",    "rck.harness.table",
    "rck.mc.io",            "rck.mc.misuse",     "rck.mc.replay",
    "rck.mc.witness",       "rck.noc.invalid",   "rck.obs.io",
    "rck.obs.misuse",       "rck.rcce.invalid",  "rck.scc.deadlock",
    "rck.scc.fault_stall",  "rck.scc.invalid",   "rck.scc.sim",
    "rck.service.invalid",  "rck.service.overload", "rck.skel.batch",
    "rck.skel.checkpoint",  "rck.skel.farm_failed", "rck.skel.invalid",
    "rck.skel.protocol",
};

bool is_code_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || c == '_' || c == '.';
}

bool in_determinism_scope(std::string_view path) {
  return starts_with(path, "src/scc/") || starts_with(path, "src/noc/") ||
         starts_with(path, "src/rcce/") || starts_with(path, "src/rckskel/") ||
         starts_with(path, "src/chk/") || starts_with(path, "src/mc/");
}

bool is_hot_path(std::string_view path) {
  for (std::string_view f : kHotPathFiles)
    if (path == f) return true;
  return false;
}

bool in_lintable_tree(std::string_view path) {
  return starts_with(path, "src/") || starts_with(path, "tools/");
}

struct Waivers {
  // line (1-based) -> rules allowed on that line and the next.
  std::map<int, std::set<std::string, std::less<>>> by_line;

  bool allows(int line, std::string_view rule) const {
    for (int l : {line, line - 1}) {
      const auto it = by_line.find(l);
      if (it == by_line.end()) continue;
      if (it->second.count("all") || it->second.count(rule)) return true;
    }
    return false;
  }
};

/// Parse `// rck-lint: allow(rule, rule)` markers from the *raw* content
/// (they live in comments, which strip() blanks).
Waivers collect_waivers(std::string_view content) {
  Waivers w;
  int line = 1;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      ++line;
      continue;
    }
    constexpr std::string_view kMark = "rck-lint: allow(";
    if (content.compare(i, kMark.size(), kMark) != 0) continue;
    std::size_t j = i + kMark.size();
    std::string name;
    for (; j < content.size() && content[j] != ')' && content[j] != '\n'; ++j) {
      const char c = content[j];
      if (c == ',' ) {
        if (!name.empty()) w.by_line[line].insert(name);
        name.clear();
      } else if (c != ' ') {
        name.push_back(c);
      }
    }
    if (!name.empty()) w.by_line[line].insert(name);
    i = j;
  }
  return w;
}

/// Per-line view of stripped content.
std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '\n') {
      lines.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

/// Find whole-identifier occurrences of `ident` in `line`; returns columns.
std::vector<std::size_t> find_ident(std::string_view line, std::string_view ident) {
  std::vector<std::size_t> cols;
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string_view::npos) {
    const bool lb = pos == 0 || !is_ident(line[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool rb = end >= line.size() || !is_ident(line[end]);
    if (lb && rb) cols.push_back(pos);
    pos = end;
  }
  return cols;
}

void check_determinism(std::string_view path,
                       const std::vector<std::string_view>& lines,
                       const Waivers& waivers, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    const std::string_view line = lines[li];
    for (std::string_view ban : kDeterminismBans) {
      if (find_ident(line, ban).empty()) continue;
      if (waivers.allows(ln, "determinism")) continue;
      out.push_back({std::string(path), ln, "determinism",
                     "banned in simulation libraries: " + std::string(ban) +
                         " (simulated runs must be a pure function of the "
                         "inputs; see DESIGN.md)"});
    }
    // The libc wall-clock calls: `std::time(...)`, `std::clock()`, and the
    // classic bare `time(nullptr)` / `time(NULL)` / `time(0)`. A member or
    // method merely *named* time (e.g. CoreTimingModel::time) is fine.
    for (std::string_view ban : {std::string_view("time"), std::string_view("clock")}) {
      for (std::size_t col : find_ident(line, ban)) {
        std::size_t after = col + ban.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (after >= line.size() || line[after] != '(') continue;
        const bool std_qualified =
            col >= 5 && line.substr(col - 5, 5) == "std::" &&
            (col == 5 || !is_ident(line[col - 6]));
        const std::string_view args = line.substr(after);
        const bool bare_wallclock =
            ban == "time" && (col == 0 || !is_ident(line[col - 1])) &&
            (col < 2 || line.substr(col - 2, 2) != "::") &&
            (starts_with(args, "(nullptr") || starts_with(args, "(NULL") ||
             starts_with(args, "(0)"));
        if (!std_qualified && !bare_wallclock) continue;
        if (waivers.allows(ln, "determinism")) continue;
        out.push_back({std::string(path), ln, "determinism",
                       "wall-clock call " + std::string(ban) +
                           "() banned in simulation libraries"});
      }
    }
  }
}

void check_throw_taxonomy(std::string_view path, std::string_view stripped,
                          const Waivers& waivers, std::vector<Finding>& out) {
  int line = 1;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (stripped[i] == '\n') {
      ++line;
      continue;
    }
    if (!is_ident(stripped[i])) continue;
    std::size_t end = i;
    while (end < stripped.size() && is_ident(stripped[end])) ++end;
    const std::string_view word = stripped.substr(i, end - i);
    if (word != "throw") {
      i = end - 1;
      continue;
    }
    // Skip whitespace (tracking newlines) to the thrown expression.
    std::size_t j = end;
    int jline = line;
    while (j < stripped.size() &&
           (stripped[j] == ' ' || stripped[j] == '\n' || stripped[j] == '\t')) {
      if (stripped[j] == '\n') ++jline;
      ++j;
    }
    i = end - 1;
    if (j >= stripped.size() || stripped[j] == ';') continue;  // rethrow
    // Qualified identifier chain: A::B::Name — judge the last component.
    std::string last;
    while (j < stripped.size()) {
      std::size_t k = j;
      while (k < stripped.size() && is_ident(stripped[k])) ++k;
      if (k == j) break;
      last.assign(stripped, j, k - j);
      if (k + 1 < stripped.size() && stripped[k] == ':' && stripped[k + 1] == ':')
        j = k + 2;
      else
        break;
    }
    const bool ok = last.size() > 5 &&
                    last.compare(last.size() - 5, 5, "Error") == 0;
    if (ok || waivers.allows(line, "throw-taxonomy")) continue;
    out.push_back({std::string(path), line, "throw-taxonomy",
                   "throw site must construct an rck::Error subclass "
                   "(*Error with a dotted code), got: " +
                       (last.empty() ? std::string("<expression>") : last)});
    (void)jline;
  }
}

void check_hot_path(std::string_view path,
                    const std::vector<std::string_view>& lines,
                    const Waivers& waivers, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    const std::string_view line = lines[li];
    for (std::string_view ban : kHotPathBans) {
      if (find_ident(line, ban).empty()) continue;
      if (waivers.allows(ln, "hot-path-alloc")) continue;
      out.push_back({std::string(path), ln, "hot-path-alloc",
                     "allocation/growth call banned in SIMD kernel hot path: " +
                         std::string(ban)});
    }
    // `new` as a keyword (placement or not).
    for (std::size_t col : find_ident(line, "new")) {
      (void)col;
      if (waivers.allows(ln, "hot-path-alloc")) continue;
      out.push_back({std::string(path), ln, "hot-path-alloc",
                     "operator new banned in SIMD kernel hot path"});
    }
  }
}

void check_error_codes(std::string_view path, std::string_view raw,
                       std::string_view stripped, const Waivers& waivers,
                       std::vector<Finding>& out) {
  // String bodies are blanked in the stripped view but the delimiting quotes
  // survive, and strip() is length-preserving — so quote pairs in `stripped`
  // locate the real literals (quotes inside comments are blanked) and `raw`
  // supplies their text. Codes are validated wherever they appear inside a
  // literal, which also covers JSON emitters that embed them mid-string.
  int line = 1;
  std::size_t i = 0;
  while (i < stripped.size()) {
    const char c = stripped[i];
    if (c == '\n') ++line;
    if (c != '"') {
      ++i;
      continue;
    }
    const std::size_t close = stripped.find('"', i + 1);
    if (close == std::string_view::npos) break;
    const std::string_view body = raw.substr(i + 1, close - i - 1);
    std::size_t pos = 0;
    while ((pos = body.find("rck.", pos)) != std::string_view::npos) {
      if (pos > 0 && is_ident(body[pos - 1])) {
        pos += 4;
        continue;
      }
      std::size_t end = pos;
      while (end < body.size() && is_code_char(body[end])) ++end;
      std::string_view code = body.substr(pos, end - pos);
      while (!code.empty() && code.back() == '.') code.remove_suffix(1);
      pos = end;
      // Two dots minimum: `rck.skel` alone names a family prefix in prose,
      // not a code.
      if (std::count(code.begin(), code.end(), '.') < 2) continue;
      const bool known =
          std::find(std::begin(kKnownErrorCodes), std::end(kKnownErrorCodes),
                    code) != std::end(kKnownErrorCodes);
      if (known || waivers.allows(line, "error-codes")) continue;
      out.push_back({std::string(path), line, "error-codes",
                     "unregistered error code \"" + std::string(code) +
                         "\" (stable dotted codes live in the linter's "
                         "registry; extend it in the PR that mints the code)"});
    }
    for (std::size_t k = i + 1; k <= close; ++k)
      if (stripped[k] == '\n') ++line;
    i = close + 1;
  }
}

void check_includes(std::string_view path,
                    const std::vector<std::string_view>& raw_lines,
                    const Waivers& waivers, std::vector<Finding>& out) {
  // src/service sits *above* the umbrella (it consumes rck::Query and
  // RunConfig), so it owns the include the same way tools do.
  const bool is_umbrella_owner = starts_with(path, "src/rck/") ||
                                 starts_with(path, "src/service/") ||
                                 starts_with(path, "tools/");
  for (std::size_t li = 0; li < raw_lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    std::string_view line = raw_lines[li];
    const std::size_t h = line.find("#include");
    if (h == std::string_view::npos) continue;
    // Only quoted includes carry project-layout obligations.
    const std::size_t q0 = line.find('"', h);
    if (q0 == std::string_view::npos) continue;
    const std::size_t q1 = line.find('"', q0 + 1);
    if (q1 == std::string_view::npos) continue;
    const std::string_view inc = line.substr(q0 + 1, q1 - q0 - 1);
    if (waivers.allows(ln, "include-hygiene")) continue;
    if (inc.find("..") != std::string_view::npos) {
      out.push_back({std::string(path), ln, "include-hygiene",
                     "parent-relative include path: \"" + std::string(inc) + "\""});
      continue;
    }
    if (!is_umbrella_owner && inc == "rck/rck.hpp") {
      out.push_back({std::string(path), ln, "include-hygiene",
                     "src libraries must not include the rck/rck.hpp umbrella "
                     "(it depends on them)"});
      continue;
    }
    if (!starts_with(inc, "rck/") && inc.find('/') != std::string_view::npos) {
      out.push_back({std::string(path), ln, "include-hygiene",
                     "quoted include must be rck/... (public header) or a "
                     "same-directory private header: \"" +
                         std::string(inc) + "\""});
    }
  }
}

/// The library layering DAG: every *direct* rck/... include edge a src
/// library is allowed to take. Edges not listed here are layering
/// violations. Two edges are implicit and never listed: a library may
/// include its own headers, and everyone may include src/common (the shared
/// rck::Error taxonomy in rck/error.hpp). The intent (see DESIGN.md,
/// "Layering"): bio/core are pure compute and must never see the simulator
/// (scc/noc) or the skeletons; the simulation layers must never reach up
/// into the rck umbrella or src/service; only the umbrella and service sit
/// on top of everything.
struct LayerEdge {
  std::string_view from;
  std::string_view to;
};

constexpr LayerEdge kLayerEdges[] = {
    // Compute stack: kernels over protein data, nothing else.
    {"core", "bio"},
    // Simulator stack: NoC model over observability; SCC runtime over the
    // NoC, the race checker, the model-checking hooks, and the compute data
    // types it ships across the (simulated) wires.
    {"noc", "obs"},
    {"scc", "bio"},
    {"scc", "chk"},
    {"scc", "mc"},
    {"scc", "noc"},
    {"scc", "obs"},
    // Programming layers over the simulator.
    {"rcce", "bio"},
    {"rcce", "scc"},
    {"rckskel", "bio"},
    {"rckskel", "noc"},
    {"rckskel", "rcce"},
    // The application: TM-align farmed over the skeletons.
    {"rckalign", "bio"},
    {"rckalign", "core"},
    {"rckalign", "noc"},
    {"rckalign", "rcce"},
    {"rckalign", "rckskel"},
    {"rckalign", "scc"},
    // Bench/CLI support utilities sit above the application.
    {"harness", "bio"},
    {"harness", "obs"},
    {"harness", "rckalign"},
    // src/service consumes the public rck:: surface (Query, RunConfig) the
    // same way tools do, so it owns the umbrella edge.
    {"service", "bio"},
    {"service", "core"},
    {"service", "noc"},
    {"service", "obs"},
    {"service", "rck"},
    // The umbrella re-exports (almost) everything below it.
    {"rck", "bio"},
    {"rck", "chk"},
    {"rck", "core"},
    {"rck", "mc"},
    {"rck", "noc"},
    {"rck", "obs"},
    {"rck", "rckalign"},
    {"rck", "rckskel"},
    {"rck", "scc"},
};

/// Registered file-level exceptions: (file, include) pairs outside the DAG
/// that are deliberate. Each entry carries its rationale here; adding one
/// means defending it in the PR that adds it.
struct LayerException {
  std::string_view file;
  std::string_view include;
};

constexpr LayerException kLayerExceptions[] = {
    // scc's timing model reuses the running-stats accumulator from
    // core — a leaf numeric helper, not the alignment kernels. The
    // simulator takes no other core dependency.
    {"src/scc/include/rck/scc/timing.hpp", "rck/core/stats.hpp"},
};

/// Library that owns `path`, e.g. "src/scc/runtime.cpp" -> "scc". Empty for
/// anything outside src/.
std::string_view src_lib(std::string_view path) {
  if (!starts_with(path, "src/")) return {};
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : rest.substr(0, slash);
}

/// Library a public include path resolves to. Top-level headers follow the
/// umbrella layout: rck/error.hpp is src/common, everything else at the top
/// level (rck.hpp, query.hpp) is the rck umbrella itself.
std::string_view include_lib(std::string_view inc) {
  if (!starts_with(inc, "rck/")) return {};
  const std::string_view rest = inc.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos)
    return rest == "error.hpp" ? std::string_view("common")
                               : std::string_view("rck");
  return rest.substr(0, slash);
}

bool layer_edge_allowed(std::string_view from, std::string_view to) {
  if (to.empty() || to == from || to == "common") return true;
  for (const LayerEdge& e : kLayerEdges)
    if (e.from == from && e.to == to) return true;
  return false;
}

bool layer_exception(std::string_view file, std::string_view inc) {
  for (const LayerException& e : kLayerExceptions)
    if (e.file == file && e.include == inc) return true;
  return false;
}

void check_layering(std::string_view path,
                    const std::vector<std::string_view>& raw_lines,
                    const Waivers& waivers, std::vector<Finding>& out) {
  const std::string_view from = src_lib(path);
  if (from.empty()) return;
  for (std::size_t li = 0; li < raw_lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    const std::string_view line = raw_lines[li];
    const std::size_t h = line.find("#include");
    if (h == std::string_view::npos) continue;
    const std::size_t q0 = line.find('"', h);
    if (q0 == std::string_view::npos) continue;
    const std::size_t q1 = line.find('"', q0 + 1);
    if (q1 == std::string_view::npos) continue;
    const std::string_view inc = line.substr(q0 + 1, q1 - q0 - 1);
    const std::string_view to = include_lib(inc);
    if (layer_edge_allowed(from, to)) continue;
    if (layer_exception(path, inc)) continue;
    if (waivers.allows(ln, "layering")) continue;
    out.push_back({std::string(path), ln, "layering",
                   "src/" + std::string(from) + " must not include \"" +
                       std::string(inc) + "\": edge " + std::string(from) +
                       " -> " + std::string(to) +
                       " is not in the layering DAG (allowed-edges table in "
                       "src/chk/lint.cpp; register an exception or restructure)"});
  }
}

}  // namespace

std::string strip(std::string_view content) {
  std::string out;
  out.reserve(content.size());
  enum class St { Code, Line, Block, Str, Chr, Raw };
  St st = St::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char n = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (st) {
      case St::Code:
        if (c == '/' && n == '/') {
          st = St::Line;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::Block;
          out += "  ";
          ++i;
        } else if (c == '"' && i >= 1 && content[i - 1] == 'R') {
          // Raw string literal: R"delim( ... )delim"
          st = St::Raw;
          raw_delim = ")";
          for (std::size_t k = i + 1; k < content.size() && content[k] != '(';
               ++k)
            raw_delim.push_back(content[k]);
          raw_delim.push_back('"');
          out.push_back('"');
        } else if (c == '"') {
          st = St::Str;
          out.push_back('"');
        } else if (c == '\'' && !(i >= 1 && is_ident(content[i - 1]))) {
          // Skip digit separators (1'000'000): a quote after an identifier
          // character is not a char literal.
          st = St::Chr;
          out.push_back('\'');
        } else {
          out.push_back(c);
        }
        break;
      case St::Line:
        if (c == '\n') {
          st = St::Code;
          out.push_back('\n');
        } else {
          out.push_back(' ');
        }
        break;
      case St::Block:
        if (c == '*' && n == '/') {
          st = St::Code;
          out += "  ";
          ++i;
        } else {
          out.push_back(c == '\n' ? '\n' : ' ');
        }
        break;
      case St::Str:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = St::Code;
          out.push_back('"');
        } else {
          out.push_back(c == '\n' ? '\n' : ' ');
        }
        break;
      case St::Chr:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::Code;
          out.push_back('\'');
        } else {
          out.push_back(' ');
        }
        break;
      case St::Raw:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) out.push_back(' ');
          out.push_back('"');
          i += raw_delim.size() - 1;
          st = St::Code;
        } else {
          out.push_back(c == '\n' ? '\n' : ' ');
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> rules_for(std::string_view repo_rel_path) {
  std::vector<std::string> rules;
  if (!in_lintable_tree(repo_rel_path)) return rules;
  const bool is_source =
      repo_rel_path.size() > 4 &&
      (repo_rel_path.ends_with(".hpp") || repo_rel_path.ends_with(".cpp") ||
       repo_rel_path.ends_with(".h") || repo_rel_path.ends_with(".cc"));
  if (!is_source) return rules;
  if (in_determinism_scope(repo_rel_path)) rules.emplace_back("determinism");
  rules.emplace_back("throw-taxonomy");
  rules.emplace_back("error-codes");
  if (is_hot_path(repo_rel_path)) rules.emplace_back("hot-path-alloc");
  rules.emplace_back("include-hygiene");
  if (starts_with(repo_rel_path, "src/")) rules.emplace_back("layering");
  return rules;
}

std::vector<Finding> lint_file(std::string_view repo_rel_path,
                               std::string_view content) {
  std::vector<Finding> out;
  const std::vector<std::string> rules = rules_for(repo_rel_path);
  if (rules.empty()) return out;

  const Waivers waivers = collect_waivers(content);
  const std::string stripped = strip(content);
  const std::vector<std::string_view> code_lines = split_lines(stripped);
  const std::vector<std::string_view> raw_lines = split_lines(content);

  const auto has = [&](std::string_view r) {
    return std::find(rules.begin(), rules.end(), r) != rules.end();
  };
  if (has("determinism"))
    check_determinism(repo_rel_path, code_lines, waivers, out);
  if (has("throw-taxonomy"))
    check_throw_taxonomy(repo_rel_path, stripped, waivers, out);
  if (has("error-codes"))
    check_error_codes(repo_rel_path, content, stripped, waivers, out);
  if (has("hot-path-alloc"))
    check_hot_path(repo_rel_path, code_lines, waivers, out);
  if (has("include-hygiene"))
    check_includes(repo_rel_path, raw_lines, waivers, out);
  if (has("layering"))
    check_layering(repo_rel_path, raw_lines, waivers, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"rule\": \"" + json_escape(f.rule) + "\", \"path\": \"" +
           json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace rck::chk::lint
