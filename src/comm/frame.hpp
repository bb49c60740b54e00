#pragma once
/// \file frame.hpp
/// Link-layer frames exchanged between IoB leaf nodes and the on-body hub.

#include <cstdint>
#include <string>

#include "sim/event_queue.hpp"

namespace iob::comm {

/// Stable identifier of a network endpoint (node or hub).
using NodeId = std::uint32_t;
inline constexpr NodeId kHubId = 0;

enum class FrameKind : std::uint8_t {
  kData,     ///< sensor payload (uplink) or actuation payload (downlink)
  kAck,      ///< link-layer acknowledgement
  kPoll,     ///< hub poll (polling MAC)
  kBeacon,   ///< superframe beacon (TDMA MAC)
};

struct Frame {
  NodeId src = 0;
  NodeId dst = 0;
  FrameKind kind = FrameKind::kData;
  std::uint32_t seq = 0;
  std::uint32_t payload_bytes = 0;
  sim::Time created_s = 0.0;   ///< when the payload was generated (for latency)
  std::string stream;          ///< logical stream tag, e.g. "ecg", "audio"
};

const char* to_string(FrameKind k);

}  // namespace iob::comm
