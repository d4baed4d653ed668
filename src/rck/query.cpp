#include "rck/query.hpp"

#include <algorithm>

#include "rck/obs/metrics.hpp"
#include "rck/rck.hpp"

#include "finish_run.hpp"

namespace rck {

std::string_view query_kind_name(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::Pair:
      return "pair";
    case QueryKind::OneVsAll:
      return "one_vs_all";
    case QueryKind::KVsAll:
      return "k_vs_all";
  }
  return "";
}

std::string_view method_name(rckalign::Method m) noexcept {
  switch (m) {
    case rckalign::Method::TmAlign:
      return "tm_align";
    case rckalign::Method::GaplessRmsd:
      return "gapless_rmsd";
    case rckalign::Method::CeAlign:
      return "ce_align";
    case rckalign::Method::SeqNw:
      return "seq_nw";
  }
  return "";
}

std::vector<ConfigIssue> validate_query(const Query& q,
                                        std::size_t database_size) {
  std::vector<ConfigIssue> issues;
  const auto bad = [&issues](std::string field, std::string message) {
    issues.push_back(ConfigIssue{std::move(field), std::move(message)});
  };

  switch (q.kind) {
    case QueryKind::Pair:
      if (q.probes.size() != 2)
        bad("query.probes", "a pair query carries exactly two probes");
      break;
    case QueryKind::OneVsAll:
      if (q.probes.size() != 1)
        bad("query.probes", "a one-vs-all query carries exactly one probe");
      if (database_size == 0)
        bad("query.kind", "one-vs-all needs a non-empty database");
      break;
    case QueryKind::KVsAll:
      if (q.probes.empty())
        bad("query.probes", "a k-vs-all query carries at least one probe");
      if (database_size == 0)
        bad("query.kind", "k-vs-all needs a non-empty database");
      break;
  }
  for (std::size_t p = 0; p < q.probes.size(); ++p) {
    if (q.probes[p].size() == 0)
      bad("query.probes[" + std::to_string(p) + "]",
          "probe has no residues");
  }
  return issues;
}

void append_query_specs(const Query& q,
                        std::span<const rckalign::Method> methods,
                        std::uint32_t probe_base, std::size_t database_size,
                        std::vector<rckalign::PairSpec>& specs) {
  for (const rckalign::Method method : methods) {
    if (q.kind == QueryKind::Pair) {
      specs.push_back(rckalign::PairSpec{probe_base, probe_base + 1, method});
      continue;
    }
    for (std::uint32_t p = 0; p < q.probes.size(); ++p)
      for (std::uint32_t e = 0; e < database_size; ++e)
        specs.push_back(rckalign::PairSpec{probe_base + p, e, method});
  }
}

QueryHit query_hit(const rckalign::PairRow& row, QueryKind kind,
                   std::uint32_t probe_base) {
  QueryHit h;
  h.probe = row.i - probe_base;
  h.entry = kind == QueryKind::Pair ? row.j - probe_base : row.j;
  h.method = row.method;
  h.tm_query = row.tm_norm_a;
  h.tm_entry = row.tm_norm_b;
  h.rmsd = row.rmsd;
  h.seq_identity = row.seq_identity;
  h.aligned_length = row.aligned_length;
  h.worker = row.worker;
  return h;
}

bool outranks(rckalign::Method method, const QueryHit& x,
              const QueryHit& y) noexcept {
  if (method == rckalign::Method::TmAlign || method == rckalign::Method::CeAlign) {
    if (x.tm_query != y.tm_query) return x.tm_query > y.tm_query;
  } else if (method == rckalign::Method::SeqNw) {
    if (x.seq_identity != y.seq_identity)
      return x.seq_identity > y.seq_identity;
  } else {
    if (x.rmsd != y.rmsd) return x.rmsd < y.rmsd;
  }
  return x.entry < y.entry;
}

void rank_query_hits(std::vector<QueryHit>& hits,
                     std::span<const rckalign::Method> methods,
                     std::size_t top_k) {
  const auto slot_of = [&methods](rckalign::Method m) -> std::size_t {
    for (std::size_t s = 0; s < methods.size(); ++s)
      if (methods[s] == m) return s;
    return methods.size();  // unknown methods sort last, stably
  };
  std::sort(hits.begin(), hits.end(),
            [&](const QueryHit& a, const QueryHit& b) {
              const std::size_t sa = slot_of(a.method), sb = slot_of(b.method);
              if (sa != sb) return sa < sb;
              if (a.probe != b.probe) return a.probe < b.probe;
              return outranks(a.method, a, b);
            });
  if (top_k == 0) return;
  // Truncate each (method, probe) group to its best top_k (the groups are
  // contiguous after the sort above).
  std::vector<QueryHit> kept;
  kept.reserve(hits.size());
  std::size_t group_len = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const bool new_group =
        i == 0 || hits[i].method != hits[i - 1].method ||
        hits[i].probe != hits[i - 1].probe;
    group_len = new_group ? 1 : group_len + 1;
    if (group_len <= top_k) kept.push_back(hits[i]);
  }
  hits = std::move(kept);
}

std::string QueryResult::to_json() const {
  std::string out;
  out.reserve(256 + hits.size() * 160);
  out += "{\n  \"schema\": \"rck-query-result-v1\",\n  \"id\": ";
  obs::append_json_u64(out, id);
  out += ",\n  \"kind\": ";
  obs::append_json_escaped(out, query_kind_name(kind));
  out += ",\n  \"shed\": ";
  out += shed ? "true" : "false";
  out += ",\n  \"arrival_ps\": ";
  obs::append_json_u64(out, arrival);
  out += ",\n  \"completion_ps\": ";
  obs::append_json_u64(out, completion);
  out += ",\n  \"makespan_ps\": ";
  obs::append_json_u64(out, static_cast<std::uint64_t>(makespan));
  out += ",\n  \"hits\": [";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const QueryHit& h = hits[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"probe\": ";
    obs::append_json_u64(out, h.probe);
    out += ", \"entry\": ";
    obs::append_json_u64(out, h.entry);
    out += ", \"method\": ";
    obs::append_json_escaped(out, method_name(h.method));
    out += ", \"tm_query\": ";
    obs::append_json_double(out, h.tm_query);
    out += ", \"tm_entry\": ";
    obs::append_json_double(out, h.tm_entry);
    out += ", \"rmsd\": ";
    obs::append_json_double(out, h.rmsd);
    out += ", \"seq_identity\": ";
    obs::append_json_double(out, h.seq_identity);
    out += ", \"aligned_length\": ";
    obs::append_json_u64(out, h.aligned_length);
    out += ", \"worker\": ";
    obs::append_json_u64(out, h.worker < 0 ? 0 : static_cast<std::uint64_t>(h.worker));
    out += "}";
  }
  out += hits.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

QueryResult run_query(const std::vector<bio::Protein>& database,
                      const Query& q, const RunConfig& cfg) {
  std::vector<ConfigIssue> issues = cfg.validate();
  std::vector<ConfigIssue> qissues = validate_query(q, database.size());
  issues.insert(issues.end(), qissues.begin(), qissues.end());
  if (!issues.empty()) throw ConfigError(std::move(issues));

  // Structure table: the database in place, probes appended after it.
  std::vector<const bio::Protein*> structures;
  structures.reserve(database.size() + q.probes.size());
  for (const bio::Protein& p : database) structures.push_back(&p);
  const auto probe_base = static_cast<std::uint32_t>(structures.size());
  for (const bio::Protein& p : q.probes) structures.push_back(&p);

  std::vector<rckalign::PairSpec> specs;
  append_query_specs(q, cfg.methods, probe_base, database.size(), specs);

  // The structure table is the database plus the probes, not the dataset a
  // cache is built for.
  rckalign::PairsOptions opts = cfg;
  opts.cache = nullptr;
  rckalign::PairsRun run = rckalign::run_pairs(structures, specs, opts);
  detail::finish_run(cfg, run.obs, run.chk.get());

  QueryResult res;
  res.kind = q.kind;
  res.arrival = q.arrival;
  res.makespan = run.makespan;
  res.completion = q.arrival + static_cast<std::uint64_t>(run.makespan);
  res.hits.reserve(run.results.size());
  for (const rckalign::PairRow& row : run.results)
    res.hits.push_back(query_hit(row, q.kind, probe_base));
  rank_query_hits(res.hits, cfg.methods, q.top_k);
  return res;
}

}  // namespace rck
