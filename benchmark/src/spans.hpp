// Benchmark-side host spans: wall-clock intervals recorded around calls into
// the repository's public API, kept in memory and written as Chrome
// trace_event JSON when the benchmark ends.
//
// The recorder is single-threaded by design: the benchmark drives every
// workload from one thread, so the open-span stack is the caller chain and
// each span's parent is the span open when it started. A disabled recorder
// records nothing, so untraced runs pay one branch per call site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rck::bench {

/// Seconds on the monotonic host clock.
double now_s();

class Spans {
 public:
  /// RAII interval; closes on destruction. Names must be string literals.
  class Scope {
   public:
    Scope(Spans* owner, std::size_t index) : owner_(owner), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    std::size_t index_;
  };

  /// Per-name aggregate: number of spans, total and self time in seconds.
  /// Self time is the span's duration minus the time its child spans cover.
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  [[nodiscard]] Scope open(const char* name);

  /// Chrome trace_event document: one complete ("X") event per span, on
  /// one thread lane, with its parent's name and index in args.
  std::string chrome_json() const;

  /// Aggregates by name, in order of first appearance.
  std::vector<Summary> summaries() const;

 private:
  struct Rec {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t parent = -1;
  };
  static std::int64_t tick_ns();
  void close(std::size_t index);

  bool enabled_ = false;
  std::vector<Rec> recs_;
  std::vector<std::size_t> stack_;
};

}  // namespace rck::bench
