#include "rck/harness/arg_parser.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace rck::harness {

namespace {

/// Classic Levenshtein distance; flag names are short so the O(n*m) table
/// is negligible.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

ArgParser& ArgParser::flag(std::string_view name, bool* out, std::string_view help) {
  specs_.push_back(Spec{"--" + std::string(name), Kind::Bool, out,
                        std::string(help), {}, {}});
  return *this;
}

ArgParser& ArgParser::option(std::string_view name, int* out, std::string_view help) {
  specs_.push_back(Spec{"--" + std::string(name), Kind::Int, out,
                        std::string(help), {}, {}});
  return *this;
}

ArgParser& ArgParser::option(std::string_view name, double* out,
                             std::string_view help) {
  specs_.push_back(Spec{"--" + std::string(name), Kind::Double, out,
                        std::string(help), {}, {}});
  return *this;
}

ArgParser& ArgParser::option(std::string_view name, std::string* out,
                             std::string_view help) {
  specs_.push_back(Spec{"--" + std::string(name), Kind::String, out,
                        std::string(help), {}, {}});
  return *this;
}

ArgParser& ArgParser::choice(std::string_view name, std::string* out,
                             std::span<const std::string_view> choices,
                             std::string_view help) {
  Spec s{"--" + std::string(name), Kind::Choice, out, std::string(help), {}, {}};
  s.choices.assign(choices.begin(), choices.end());
  specs_.push_back(std::move(s));
  return *this;
}

ArgParser& ArgParser::alias(std::string_view alias_name, std::string_view target) {
  const std::string target_flag = "--" + std::string(target);
  for (Spec& s : specs_) {
    if (s.name == target_flag) {
      s.aliases.push_back("--" + std::string(alias_name));
      return *this;
    }
  }
  throw ArgError("alias '--" + std::string(alias_name) +
                 "' targets unregistered flag '" + target_flag + "'");
}

ArgParser& ArgParser::obs_flags(obs::Config* cfg) {
  option("trace-out", &cfg->trace_path,
         "write a Chrome trace_event JSON here (chrome://tracing, Perfetto)");
  option("metrics-out", &cfg->metrics_path,
         "write the merged metrics JSON here");
  flag("collect", &cfg->enable,
       "record metrics + trace in memory even with no output file");
  return *this;
}

const ArgParser::Spec* ArgParser::find(std::string_view name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
    for (const std::string& a : s.aliases)
      if (a == name) return &s;
  }
  return nullptr;
}

std::string ArgParser::suggest(std::string_view arg) const {
  std::string best;
  std::size_t best_d = arg.size();  // a full rewrite is not a typo
  const auto consider = [&](const std::string& candidate) {
    const std::size_t d = edit_distance(arg, candidate);
    if (d < best_d) {
      best_d = d;
      best = candidate;
    }
  };
  for (const Spec& s : specs_) {
    consider(s.name);
    for (const std::string& a : s.aliases) consider(a);
  }
  // Accept only near misses: a third of the name's length, at least 1.
  const std::size_t limit = std::max<std::size_t>(1, best.size() / 3);
  return best_d <= limit ? best : std::string();
}

void ArgParser::apply(const Spec& spec, std::string_view value) {
  switch (spec.kind) {
    case Kind::Bool:
      *static_cast<bool*>(spec.out) = true;
      return;
    case Kind::Int: {
      int v = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc{} || ptr != value.data() + value.size())
        throw ArgError(spec.name + " expects an integer, got '" +
                       std::string(value) + "'");
      *static_cast<int*>(spec.out) = v;
      return;
    }
    case Kind::Double: {
      // std::from_chars<double> is missing on some libstdc++ versions the CI
      // matrix covers; strtod on a NUL-terminated copy is equivalent here.
      const std::string buf(value);
      char* end = nullptr;
      const double v = std::strtod(buf.c_str(), &end);
      if (buf.empty() || end != buf.c_str() + buf.size())
        throw ArgError(spec.name + " expects a number, got '" + buf + "'");
      *static_cast<double*>(spec.out) = v;
      return;
    }
    case Kind::String:
      *static_cast<std::string*>(spec.out) = std::string(value);
      return;
    case Kind::Choice: {
      if (std::find(spec.choices.begin(), spec.choices.end(), value) ==
          spec.choices.end()) {
        std::string msg = spec.name + " expects one of {";
        for (std::size_t i = 0; i < spec.choices.size(); ++i)
          msg += (i ? ", " : "") + spec.choices[i];
        throw ArgError(msg + "}, got '" + std::string(value) + "'");
      }
      *static_cast<std::string*>(spec.out) = std::string(value);
      return;
    }
  }
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

bool ArgParser::parse(std::span<const std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }

    std::string_view name = arg;
    std::string_view inline_value;
    bool has_inline = false;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
      has_inline = true;
    }

    const Spec* spec = find(name);
    if (spec == nullptr) {
      std::string msg = "unknown flag '" + std::string(name) + "'";
      if (const std::string near = suggest(name); !near.empty())
        msg += "; did you mean '" + near + "'?";
      msg += " (--help lists flags)";
      throw ArgError(msg);
    }

    if (spec->kind == Kind::Bool) {
      if (has_inline)
        throw ArgError(spec->name + " is a switch and takes no value");
      apply(*spec, {});
      continue;
    }
    if (has_inline) {
      apply(*spec, inline_value);
      continue;
    }
    if (i + 1 >= args.size()) throw ArgError(spec->name + " expects a value");
    apply(*spec, args[++i]);
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  if (!summary_.empty()) os << summary_ << "\n";
  os << "\nflags:\n";
  std::size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(specs_.size());
  for (const Spec& s : specs_) {
    std::string head = s.name;
    switch (s.kind) {
      case Kind::Bool: break;
      case Kind::Int: head += " N"; break;
      case Kind::Double: head += " X"; break;
      case Kind::String: head += " VALUE"; break;
      case Kind::Choice: {
        head += " ";
        for (std::size_t i = 0; i < s.choices.size(); ++i)
          head += (i ? "|" : "") + s.choices[i];
        break;
      }
    }
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  for (std::size_t k = 0; k < specs_.size(); ++k) {
    os << "  " << heads[k] << std::string(width - heads[k].size() + 2, ' ')
       << specs_[k].help;
    if (!specs_[k].aliases.empty()) {
      os << " (alias:";
      for (const std::string& a : specs_[k].aliases) os << " " << a;
      os << ")";
    }
    os << "\n";
  }
  os << "  --help" << std::string(width > 6 ? width - 6 + 2 : 2, ' ')
     << "show this message\n";
  return os.str();
}

}  // namespace rck::harness
