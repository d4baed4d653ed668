// Internal: the post-run step of every rck:: entry point that simulates a
// farm (rck::run() and rck::run_query()). Not part of the public API.
#pragma once

#include <memory>

#include "rck/chk/chk.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rck.hpp"

namespace rck::detail {

/// Write the run's configured obs files (obs::flush), then the chk report
/// when cfg.runtime.chk.report_path is set. The report is written even when
/// clean, so callers (and CI artifact steps) can always rely on the file
/// existing after the run.
inline void finish_run(const RunConfig& cfg,
                       const std::shared_ptr<obs::Recorder>& recorder,
                       const chk::Checker* checker) {
  obs::flush(recorder);
  if (checker != nullptr && !cfg.runtime.chk.report_path.empty())
    chk::write_report(*checker, cfg.runtime.chk.report_path);
}

}  // namespace rck::detail
