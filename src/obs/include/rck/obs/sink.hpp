// Output of the rck::obs recorder.
//
// Serialization runs strictly after the simulation finishes, on the calling
// host thread, and is pure (integer-only formatting, fixed iteration
// orders), so identical recorder contents produce byte-identical output.
#pragma once

#include <memory>
#include <string>

#include "rck/obs/obs.hpp"

namespace rck::obs {

/// Chrome trace_event JSON (the "JSON Array Format" variant wrapped in
/// {"traceEvents": [...]}) for chrome://tracing and Perfetto.
/// Timestamps are microseconds with fixed 6-digit fractional picosecond
/// precision, derived from integer ps by division — no floating point.
std::string chrome_trace_json(const Recorder& rec);

/// Writes the files the recorder's Config names: the metrics snapshot
/// (Snapshot::to_json(), "rck-obs-metrics-v1") to metrics_path, then
/// chrome_trace_json() to trace_path. Throws ObsIoError ("rck.obs.io") when
/// a file cannot be written. No-op for a null recorder.
void flush(const std::shared_ptr<Recorder>& rec);

}  // namespace rck::obs
