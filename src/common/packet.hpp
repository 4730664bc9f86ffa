#pragma once
/// \file packet.hpp
/// The minimal packet record flowing between the traffic generator and
/// the observatory simulators: an anonymizable (source, destination)
/// header pair. Everything the paper computes (Table II) derives from
/// these two fields; payloads never leave the sensors.

#include <functional>
#include <span>

#include "common/ipv4.hpp"

namespace obscorr {

/// One captured packet header.
struct Packet {
  Ipv4 src;
  Ipv4 dst;

  friend constexpr bool operator==(const Packet&, const Packet&) = default;
};

/// Receives consecutive packet batches: the shape of every capture
/// stream (generator -> telescope, generator -> trace file, trace file
/// -> telescope). The span is only valid for the call.
using PacketBatchSink = std::function<void(std::span<const Packet>)>;

}  // namespace obscorr
