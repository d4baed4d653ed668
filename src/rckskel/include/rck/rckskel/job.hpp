// Job and message protocol of the rckskel skeleton library.
//
// Paper terminology (Section IV): a *job* is an application-specific unit of
// processing dispatched to one processing element (e.g. one pairwise PSC);
// a *task* is a collection of jobs or sub-tasks plus the computing resources
// allowed to process them. The wire protocol between master and slaves is
// four message types: READY (slave handshake, the check_ready mechanism),
// JOB, RESULT and TERMINATE, plus the checkpoint, heartbeat and batch
// extensions below. Every frame is sealed with a CRC-32C checksum
// (wire_checksum) that the decoder verifies before it parses anything.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rck/bio/serialize.hpp"

namespace rck::rckskel {

/// One unit of work: opaque application payload plus scheduling metadata.
struct Job {
  std::uint64_t id = 0;
  bio::Bytes payload;
  /// Optional cost estimate for LPT (longest-processing-time-first)
  /// ordering; 0 means unknown. The paper ran FIFO (no load balancing) and
  /// cites LPT-style balancing as possible future improvement.
  std::uint64_t cost_hint = 0;
};

/// A completed job as seen by the master.
struct JobResult {
  std::uint64_t id = 0;
  int worker = -1;  ///< UE that processed the job
  bio::Bytes payload;

  bool operator==(const JobResult&) const = default;
};

enum class MsgType : std::uint8_t {
  Ready = 1,
  Job = 2,
  Result = 3,
  Terminate = 4,
  /// Master-FT extensions (PR 6): a CHECKPOINT frame carries an encoded
  /// FarmCheckpoint snapshot to the standby; a HEARTBEAT frame proves master
  /// liveness between checkpoints. Both ride the same sealed-frame format.
  Checkpoint = 5,
  Heartbeat = 6,
  /// Batched-farm extension: a BATCH frame grants a slave several jobs in
  /// one round trip; BATCHRESULT returns all their results in one frame.
  /// Both carry [u32 count] then per job [u64 id][u32 len][payload bytes].
  /// Grant size is a scheduling knob only — per-job payloads and results
  /// are byte-identical to the equivalent JOB/RESULT exchanges.
  Batch = 7,
  BatchResult = 8,
};

/// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, initial value and
/// final XOR 0xFFFFFFFF; the CRC of iSCSI, SCTP and ext4) over `data`, as
/// carried in every protocol frame and checkpoint. It detects every error
/// burst of up to 32 bits inside the covered bytes, so every corrupted
/// byte of a frame (the checksum field included: a change confined to it
/// never matches), and every error that flips an odd number of bits
/// anywhere in the frame. Runs the SSE4.2 crc32 instruction eight
/// bytes at a time when the CPU has it (checked once per process), else
/// wire_checksum_portable. Exposed so tests can craft or verify frames.
std::uint32_t wire_checksum(std::span<const std::byte> data) noexcept;

/// The portable twin of wire_checksum: slicing-by-8 over little-endian
/// reads, so its value does not depend on the host's byte order. Returns
/// exactly wire_checksum's values; tests compare the two paths through it.
std::uint32_t wire_checksum_portable(std::span<const std::byte> data) noexcept;

/// Encode the skeleton-protocol messages. Every frame is
/// [u32 checksum][u8 type][type-specific body]; the checksum (little-endian
/// wire_checksum) covers everything after itself, so a corrupted or
/// truncated frame is detected at decode time instead of poisoning the farm.
bio::Bytes encode_ready();
bio::Bytes encode_job(const Job& job);
bio::Bytes encode_result(std::uint64_t job_id, const bio::Bytes& payload);
bio::Bytes encode_terminate();
bio::Bytes encode_checkpoint(const bio::Bytes& snapshot);
bio::Bytes encode_heartbeat(std::uint64_t seq);

/// Encode a multi-job grant (MsgType::Batch). `jobs` must be non-empty;
/// cost_hint is master-side scheduling state and does not travel.
bio::Bytes encode_batch(std::span<const Job* const> jobs);
/// Encode the slave's reply to a grant (MsgType::BatchResult): one payload
/// per granted job, in grant order. `jobs` and `payloads` must be the same
/// length and non-empty.
bio::Bytes encode_batch_result(std::span<const Job> jobs,
                               std::span<const bio::Bytes> payloads);

/// Decode the body of a Batch frame (Message::payload) into `out`
/// (cleared first; capacity reuse makes steady-state grants allocation-free
/// once a slave has seen its largest grant). Throws bio::WireError on
/// truncation, a zero count, or trailing bytes.
void decode_batch_jobs(const bio::Bytes& payload, std::vector<Job>& out);
/// Decode the body of a BatchResult frame into `out` (cleared first),
/// attributing every result to `worker`. Same error behaviour.
void decode_batch_results(const bio::Bytes& payload, int worker,
                          std::vector<JobResult>& out);

/// A decoded protocol message.
struct Message {
  MsgType type = MsgType::Terminate;
  std::uint64_t job_id = 0;  ///< valid for Job / Result / Heartbeat (seq)
  bio::Bytes payload;        ///< valid for Job / Result / Checkpoint /
                             ///< Batch / BatchResult (the batch body)
};

/// Decode a protocol message; throws bio::WireError on malformed input: a
/// short frame, a checksum mismatch, an unknown type, a truncated body or
/// bytes after a READY, TERMINATE or HEARTBEAT body.
Message decode_message(bio::Bytes raw);

}  // namespace rck::rckskel
