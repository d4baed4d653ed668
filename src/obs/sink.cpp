#include "rck/obs/sink.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace rck::obs {

namespace {

// pid layout of the emitted trace: one synthetic "process" per lane family
// so chrome://tracing / Perfetto group related lanes together.
constexpr int kPidCores = 0;
constexpr int kPidNoc = 1;
constexpr int kPidFarm = 2;

int lane_pid(Lane lane) noexcept {
  switch (lane) {
    case Lane::Core:
      return kPidCores;
    case Lane::LinkLocal:
    case Lane::LinkX:
    case Lane::LinkY:
      return kPidNoc;
    case Lane::Farm:
      return kPidFarm;
  }
  return kPidCores;
}

int lane_tid(Lane lane, int shard) noexcept {
  switch (lane) {
    case Lane::Core:
      return shard;
    case Lane::LinkLocal:
      return 0;
    case Lane::LinkX:
      return 1;
    case Lane::LinkY:
      return 2;
    case Lane::Farm:
      return 0;
  }
  return shard;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

// Chrome trace timestamps are microseconds. Simulated time is integer
// picoseconds, so we emit fixed-point µs with exactly six fractional digits
// (1 ps = 1e-6 µs) using integer division only — no doubles anywhere near
// the byte stream.
void append_us(std::string& out, Ts ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%06" PRIu64, ps / 1000000,
                ps % 1000000);
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_meta(std::string& out, const char* kind, int pid, int tid,
                 std::string_view value, bool with_tid) {
  out += "{\"ph\": \"M\", \"name\": \"";
  out += kind;
  out += "\", \"pid\": ";
  append_i64(out, pid);
  if (with_tid) {
    out += ", \"tid\": ";
    append_i64(out, tid);
  }
  out += ", \"args\": {\"name\": ";
  append_escaped(out, value);
  out += "}},\n";
}

void write_text_file(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw ObsIoError("obs: cannot open for writing: " + path);
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!f) throw ObsIoError("obs: short write: " + path);
}

}  // namespace

std::string chrome_trace_json(const Recorder& rec) {
  const std::vector<Recorder::MergedRecord> merged = rec.merged_trace();

  std::string out;
  out.reserve(256 + merged.size() * 96);
  out += "{\"traceEvents\": [\n";

  // Metadata first: stable regardless of what the run recorded.
  append_meta(out, "process_name", kPidCores, 0, "cores", false);
  append_meta(out, "process_name", kPidNoc, 0, "noc", false);
  append_meta(out, "process_name", kPidFarm, 0, "farm", false);
  for (int c = 0; c < rec.core_shards(); ++c) {
    char label[32];
    std::snprintf(label, sizeof label, "core %d", c);
    append_meta(out, "thread_name", kPidCores, c, label, true);
  }
  append_meta(out, "thread_name", kPidNoc, 0, "links local", true);
  append_meta(out, "thread_name", kPidNoc, 1, "links x", true);
  append_meta(out, "thread_name", kPidNoc, 2, "links y", true);
  append_meta(out, "thread_name", kPidFarm, 0, "jobs", true);

  for (const Recorder::MergedRecord& m : merged) {
    const TraceRecord& r = m.rec;
    const int pid = lane_pid(r.lane);
    const int tid = lane_tid(r.lane, m.shard);
    out += "{\"ph\": \"";
    switch (r.ph) {
      case Ph::Span:
        out += "X";
        break;
      case Ph::Instant:
        out += "i";
        break;
      case Ph::Counter:
        out += "C";
        break;
      case Ph::AsyncBegin:
        out += "b";
        break;
      case Ph::AsyncEnd:
        out += "e";
        break;
    }
    out += "\", \"name\": ";
    append_escaped(out, rec.name_of(r.name));
    out += ", \"cat\": \"rck\", \"pid\": ";
    append_i64(out, pid);
    out += ", \"tid\": ";
    append_i64(out, tid);
    out += ", \"ts\": ";
    append_us(out, r.ts);
    switch (r.ph) {
      case Ph::Span:
        out += ", \"dur\": ";
        append_us(out, r.dur);
        break;
      case Ph::Instant:
        out += ", \"s\": \"t\"";
        break;
      case Ph::Counter:
        out += ", \"args\": {\"value\": ";
        append_i64(out, r.value);
        out += "}";
        break;
      case Ph::AsyncBegin:
      case Ph::AsyncEnd:
        break;
    }
    // id doubles as the async correlation key and, for counters, as the
    // series discriminator (e.g. one mpb_occupancy series per core).
    if (r.id != 0 || r.ph == Ph::AsyncBegin || r.ph == Ph::AsyncEnd ||
        r.ph == Ph::Counter) {
      out += ", \"id\": \"";
      append_u64(out, r.id);
      out += "\"";
    }
    out += "},\n";
  }

  // Trailing metadata event avoids trailing-comma special cases while
  // keeping the array valid JSON.
  out +=
      "{\"ph\": \"M\", \"name\": \"trace_done\", \"pid\": 0, \"args\": "
      "{\"name\": \"rck\"}}\n";
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

void flush(const std::shared_ptr<Recorder>& rec) {
  if (!rec) return;
  const Config& cfg = rec->config();
  if (!cfg.metrics_path.empty())
    write_text_file(cfg.metrics_path, rec->snapshot().to_json());
  if (!cfg.trace_path.empty()) write_text_file(cfg.trace_path, chrome_trace_json(*rec));
}

}  // namespace rck::obs
