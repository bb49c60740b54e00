#pragma once
/// \file frame.hpp
/// Link-layer frames exchanged between IoB leaf nodes and the on-body hub.

#include <cstdint>
#include <type_traits>

#include "sim/event_queue.hpp"

namespace iob::comm {

/// Stable identifier of a network endpoint (node or hub).
using NodeId = std::uint32_t;
inline constexpr NodeId kHubId = 0;

/// Interned logical stream tag ("ecg", "audio", ...). The `TdmaBus` owns
/// the tag table (`TdmaBus::intern_stream`); ids are dense from 0 in
/// first-use order.
using StreamId = std::uint32_t;
/// A frame that belongs to no stream (e.g. a downlink actuation frame).
inline constexpr StreamId kNoStream = ~StreamId{0};

enum class FrameKind : std::uint8_t {
  kData,     ///< sensor payload (uplink) or actuation payload (downlink)
  kAck,      ///< link-layer acknowledgement
  kPoll,     ///< hub poll (polling MAC)
  kBeacon,   ///< superframe beacon (TDMA MAC)
};

/// Plain 32-byte value: queued by value in the MAC's per-node deques, so
/// enqueueing a frame is a trivial copy with no allocation.
struct Frame {
  sim::Time created_s = 0.0;   ///< when the payload was generated (for latency)
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;
  std::uint32_t payload_bytes = 0;
  StreamId stream = kNoStream;  ///< interned logical stream tag
  FrameKind kind = FrameKind::kData;
};
static_assert(std::is_trivially_copyable_v<Frame> && sizeof(Frame) == 32);

}  // namespace iob::comm
