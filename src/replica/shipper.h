// JournalShipper — leader-side read path of journal-shipping replication.
//
// A follower replicates by pulling raw byte ranges of the leader's
// journal segment files (docs/REPLICATION.md): journal bytes go on the
// wire exactly as they sit on disk, so the follower's local files are
// byte-identical prefixes of the leader's and every byte stays under the
// journal's own CRC-32C framing. The shipper is the stateless reader
// behind the ReplFetch request: given (segment, offset) — the next
// unshipped byte — it answers with the bytes that exist right now plus
// the metadata the follower needs to keep its cursor straight:
//
//   * sealed       — the requested segment is complete (a higher-indexed
//                    segment is listed, so no byte will ever be appended
//                    to it again) and this chunk reaches its end;
//                    continue at (next_segment, 0).
//   * restart      — the requested segment no longer exists (the leader
//                    rotated and garbage-collected past a slow follower,
//                    or the journal was replaced). The follower must
//                    discard its local copy and re-ship from
//                    (next_segment, 0); every segment starts with a full
//                    snapshot anchor, so a restart is a complete
//                    catch-up, not an error.
//
// Reading races appends harmlessly: the size observed by fstat is a
// consistent lower bound of an append-only file, and a chunk that ends
// mid-frame simply completes in the next fetch. A rotation races nothing:
// the writer lists a segment only once its anchor is whole and durable
// (it streams the anchor under a temp name and renames it), and removes
// a listed one only when garbage collection supersedes it. Nothing here
// blocks on or synchronizes with the writer — a slow follower can never
// stall leader ingest.

#ifndef TOPKMON_REPLICA_SHIPPER_H_
#define TOPKMON_REPLICA_SHIPPER_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace topkmon {

/// One answered fetch (mirrors the ReplChunk wire message).
struct ShipChunk {
  std::uint64_t segment = 0;  ///< segment the bytes belong to
  std::uint64_t offset = 0;   ///< file offset the bytes start at
  bool sealed = false;
  bool restart = false;
  std::uint64_t next_segment = 0;  ///< valid when sealed or restart
  std::string data;                ///< raw journal-file bytes (may be empty)
};

/// Stateless chunk reader over a leader's journal directory.
class JournalShipper {
 public:
  explicit JournalShipper(std::string dir) : dir_(std::move(dir)) {}

  /// Reads up to `max_bytes` of segment `segment` starting at `offset`.
  /// An empty chunk with neither flag set means "nothing new yet" (the
  /// caller long-polls). Fails only on real I/O errors.
  Result<ShipChunk> Read(std::uint64_t segment, std::uint64_t offset,
                         std::uint32_t max_bytes) const;

  /// Current end of the journal: the highest segment index and its byte
  /// size. (0, 0) when nothing is journaled yet. Electing followers
  /// compare this (via StatusInfo) to break ties between candidates
  /// whose applied cycle frontiers are equal.
  Status End(std::uint64_t* segment, std::uint64_t* offset) const;

  const std::string& dir() const { return dir_; }

 private:
  const std::string dir_;
};

}  // namespace topkmon

#endif  // TOPKMON_REPLICA_SHIPPER_H_
