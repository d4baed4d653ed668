// Master-failover checkpoint codec (PR 6).
//
// The fault-tolerant farm master periodically serializes its recovery state —
// completed results, per-job attempt counts and the FarmReport so far — into
// a self-checksummed snapshot replicated to a designated standby core. On a
// missed-heartbeat failover the standby decodes the latest valid snapshot and
// resumes the farm without re-running any checkpointed job. The snapshot is
// sealed exactly like a protocol frame ([u32 CRC-32C][body], wire_checksum),
// so a corrupted or truncated snapshot is rejected at decode time instead of
// poisoning the resumed farm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rck/error.hpp"
#include "rck/rckskel/job.hpp"
#include "rck/rckskel/skeletons.hpp"

namespace rck::rckskel {

/// A checkpoint snapshot failed validation (checksum mismatch, truncation,
/// or a reference to a job the resuming task tree does not contain).
/// Code "rck.skel.checkpoint".
class CheckpointError : public rck::Error {
 public:
  explicit CheckpointError(const std::string& message)
      : Error("rck.skel.checkpoint", message) {}
};

/// The farm master's resumable state at one point in simulated time.
struct FarmCheckpoint {
  /// Monotonically increasing snapshot number; the standby keeps the highest
  /// sequence it has successfully decoded.
  std::uint64_t seq = 0;
  /// Recovery bookkeeping accumulated so far; carried across a failover so
  /// the final report reflects the whole run, not just the resumed half.
  FarmReport report;
  /// Completed results in completion order. Jobs listed here are never
  /// re-dispatched by the resuming master.
  std::vector<JobResult> done;
  /// Attempt counts for jobs that have been dispatched at least once, so
  /// retry backoff keeps growing across a failover instead of resetting.
  struct JobAttempts {
    std::uint64_t id = 0;
    std::uint32_t attempts = 0;
    bool operator==(const JobAttempts&) const = default;
  };
  std::vector<JobAttempts> attempts;

  bool operator==(const FarmCheckpoint&) const = default;
};

/// Encode `ck` into a sealed snapshot blob: [u32 CRC-32C checksum][body]
/// (wire_checksum), checksum covering everything after itself.
bio::Bytes encode_checkpoint_state(const FarmCheckpoint& ck);

/// Decode a sealed snapshot; throws CheckpointError on any corruption
/// (checksum mismatch, truncation, malformed body).
FarmCheckpoint decode_checkpoint_state(std::span<const std::byte> blob);

}  // namespace rck::rckskel
