// rck query value types: the one request/response vocabulary for every
// query shape the stack answers.
//
// A Query is a value — what to compare (probe structures), against what
// (the caller's database), in which shape (pair / one-vs-all / k-vs-all) —
// and a QueryResult is the ranked answer with a stable, byte-reproducible
// JSON form ("rck-query-result-v1", serialized through the obs
// integer-safe formatter). The same two types flow through both entry
// points: rck::run_query() for a standalone query, and
// rck::service::Service for streams of queries against a resident
// database. Both build a query's comparisons and turn its result rows into
// hits through the same helpers (append_query_specs, query_hit,
// rank_query_hits). Configuration always arrives as a validated
// rck::RunConfig (rck/rck.hpp declares run_query and the helpers, which
// see both sides).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"

namespace rck {

enum class QueryKind : std::uint8_t {
  Pair,      ///< probes[0] aligned onto probes[1]; the database is unused
  OneVsAll,  ///< probes[0] against every database entry
  KVsAll,    ///< every probe against every database entry
};

/// Stable lower-snake name ("pair", "one_vs_all", "k_vs_all") used in JSON.
std::string_view query_kind_name(QueryKind k) noexcept;

/// Stable lower-snake name for a comparison method ("tm_align",
/// "gapless_rmsd", "ce_align", "seq_nw") used in JSON and CLIs.
std::string_view method_name(rckalign::Method m) noexcept;

/// One query against a structure database.
struct Query {
  QueryKind kind = QueryKind::OneVsAll;
  /// The probe structures; their required count depends on `kind` (Pair:
  /// exactly 2, OneVsAll: exactly 1, KVsAll: at least 1).
  std::vector<bio::Protein> probes;
  /// Keep only the best `top_k` hits per (method, probe); 0 = keep all.
  std::size_t top_k = 0;
  /// Simulated arrival time in picoseconds. Standalone run_query() copies
  /// it through; the service uses it to order and admit trace-driven load.
  std::uint64_t arrival = 0;

  static Query pair(bio::Protein a, bio::Protein b) {
    Query q;
    q.kind = QueryKind::Pair;
    q.probes.push_back(std::move(a));
    q.probes.push_back(std::move(b));
    return q;
  }
  static Query one_vs_all(bio::Protein probe, std::size_t top_k = 0) {
    Query q;
    q.kind = QueryKind::OneVsAll;
    q.probes.push_back(std::move(probe));
    q.top_k = top_k;
    return q;
  }
  static Query k_vs_all(std::vector<bio::Protein> probes, std::size_t top_k = 0) {
    Query q;
    q.kind = QueryKind::KVsAll;
    q.probes = std::move(probes);
    q.top_k = top_k;
    return q;
  }
  Query& at(std::uint64_t arrival_ps) {
    arrival = arrival_ps;
    return *this;
  }
};

/// One ranked hit. The schema is stable: new fields may be appended, but
/// existing ones keep their names and meaning across releases.
struct QueryHit {
  std::uint32_t probe = 0;  ///< index into Query::probes
  /// Database index of the matched entry; for a Pair query (which has no
  /// database side) this is the index of the second probe.
  std::uint32_t entry = 0;
  rckalign::Method method = rckalign::Method::TmAlign;
  double tm_query = 0.0;  ///< TM normalized by probe length (ranking key)
  double tm_entry = 0.0;  ///< TM normalized by entry length
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  int worker = -1;  ///< slave rank that produced it

  bool operator==(const QueryHit&) const = default;
};

/// The ranked answer to one Query.
struct QueryResult {
  std::uint64_t id = 0;  ///< service-assigned submission id; 0 standalone
  QueryKind kind = QueryKind::OneVsAll;
  /// True when the service's admission control dropped the query (hits is
  /// then empty and completion is the shed time).
  bool shed = false;
  std::uint64_t arrival = 0;     ///< simulated ps (copied from the Query)
  std::uint64_t completion = 0;  ///< simulated ps
  noc::SimTime makespan = 0;     ///< simulated span of the run that served it
  /// Hits grouped method-major (configuration order), probe-minor, each
  /// (method, probe) group ranked by rck::outranks and truncated to the
  /// query's top_k.
  std::vector<QueryHit> hits;

  bool operator==(const QueryResult&) const = default;

  /// Stable JSON document ("rck-query-result-v1"): equal results produce
  /// byte-equal documents (doubles via the obs %.17g formatter), so service
  /// runs at different host-pool widths can be compared with cmp/strcmp.
  std::string to_json() const;
};

}  // namespace rck
