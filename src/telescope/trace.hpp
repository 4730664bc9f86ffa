#pragma once
/// \file trace.hpp
/// Packet-trace files: the recorded-capture ingest path. The telescope
/// normally consumes a live stream; operators also replay archived
/// captures. The format is a minimal binary header-pair log (the
/// anonymizable fields only — this library never stores payloads):
///
///   8 bytes  magic "OBSCTRC1"
///   u64      packet count
///   { u32 src, u32 dst } x count   (host-order IPv4 values)
///
/// `TraceWriter` streams packet batches out; `replay_trace` hands them
/// back to a callback in fixed-size batches, so a multi-gigabyte trace
/// never needs to fit in memory.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/packet.hpp"

namespace obscorr::telescope {

/// Streaming trace writer. The packet count is back-patched on `close`
/// (or destruction), so writers can stream without knowing the total.
class TraceWriter {
 public:
  /// Open `path` for writing; throws when the file cannot be created.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Append a batch of packets.
  void write(std::span<const Packet> packets);

  /// Packets written so far.
  std::uint64_t count() const { return count_; }

  /// Finalize the header; further writes are invalid. Idempotent.
  /// False when a byte did not reach the file (a full disk).
  bool close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t count_ = 0;
};

/// Replay a trace file through `sink` in fixed-size batches; returns the
/// packet count. Throws std::invalid_argument on malformed files (bad
/// magic, unfinalized header, truncation, trailing bytes).
std::uint64_t replay_trace(const std::string& path, const PacketBatchSink& sink);

/// Convenience: record exactly the packets `producer` hands to the sink
/// it is given (e.g. one generated window). Returns the number written;
/// throws std::invalid_argument naming `path` when the file cannot be
/// written in full.
std::uint64_t record_trace(const std::string& path,
                           const std::function<void(const PacketBatchSink&)>& producer);

}  // namespace obscorr::telescope
