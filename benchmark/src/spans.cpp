#include "spans.hpp"

#include <chrono>

#include "rck/obs/metrics.hpp"

namespace rck::bench {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Spans::tick_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Spans::Scope::~Scope() {
  if (owner_ != nullptr) owner_->close(index_);
}

Spans::Scope Spans::open(const char* name) {
  if (!enabled_) return Scope(nullptr, kNone);
  Rec r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  r.start_ns = tick_ns();
  recs_.push_back(r);
  stack_.push_back(recs_.size() - 1);
  return Scope(this, recs_.size() - 1);
}

void Spans::close(std::size_t index) {
  Rec& r = recs_[index];
  r.end_ns = tick_ns();
  stack_.pop_back();
  if (r.parent >= 0)
    recs_[static_cast<std::size_t>(r.parent)].child_ns += r.end_ns - r.start_ns;
}

std::string Spans::chrome_json() const {
  const std::int64_t t0 = recs_.empty() ? 0 : recs_.front().start_ns;
  std::string out = "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"rck_bench host spans\"}}";
  for (std::size_t k = 0; k < recs_.size(); ++k) {
    const Rec& r = recs_[k];
    out += ",\n{\"ph\":\"X\",\"name\":";
    obs::append_json_escaped(out, r.name);
    out += ",\"cat\":\"bench\",\"pid\":1,\"tid\":1,\"ts\":";
    obs::append_json_double(out, static_cast<double>(r.start_ns - t0) / 1e3);
    out += ",\"dur\":";
    obs::append_json_double(out, static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    out += ",\"args\":{\"id\":";
    obs::append_json_u64(out, k);
    if (r.parent >= 0) {
      out += ",\"parent\":";
      obs::append_json_u64(out, static_cast<std::uint64_t>(r.parent));
      out += ",\"parent_name\":";
      obs::append_json_escaped(out, recs_[static_cast<std::size_t>(r.parent)].name);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::vector<Spans::Summary> Spans::summaries() const {
  std::vector<Summary> out;
  for (const Rec& r : recs_) {
    Summary* s = nullptr;
    for (Summary& e : out)
      if (e.name == r.name) s = &e;
    if (s == nullptr) {
      out.push_back(Summary{r.name, 0, 0.0, 0.0});
      s = &out.back();
    }
    s->count += 1;
    s->total_s += static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    s->self_s += static_cast<double>(r.end_ns - r.start_ns - r.child_ns) / 1e9;
  }
  return out;
}

}  // namespace rck::bench
