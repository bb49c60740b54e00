#pragma once
/// \file tdma.hpp
/// Hub-coordinated TDMA over the shared body bus (paper Sec. V).
///
/// EQS-HBC turns the whole body into *one* broadcast medium — electrically a
/// shared wire — so medium access is the hub's job, exactly like the nervous
/// system's time-multiplexed afferent pathways. The hub emits a beacon at
/// each superframe start (all leaves listen briefly to resynchronize), then
/// each leaf transmits in its assigned slot(s). Leaves sleep outside their
/// slots, which is what keeps the leaf radio budget at the ~uW level the
/// paper's Fig. 1 (right) requires.
///
/// A leaf's queue holds fragment runs, not frames: a message larger than
/// the MTU (a split node's boundary activation) is one entry whose head
/// fragment advances in place as the slots send it. Queue bounds, depth
/// and purges still count frames, and every fragment is sent, charged,
/// retried and dropped exactly as a frame queued on its own would be.

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/frame.hpp"
#include "comm/link.hpp"
#include "comm/mac_stats.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace iob::comm {

class ChannelDynamics;
class GilbertElliott;

struct TdmaConfig {
  /// Per-slot duration. Non-positive requests *auto-sizing*: the bus
  /// derives the slot from its link's rate at construction —
  /// `frame_time_s(auto_slot_mtu_bytes) * auto_slot_margin` — so BLE/NFMI/
  /// ULP-Wi-R populations get slots that actually fit their frames instead
  /// of inheriting Wi-R's hand-set 1 ms. The positive default keeps every
  /// existing configuration bit-identical.
  double slot_s = 1e-3;
  double guard_s = 20e-6;        ///< inter-slot guard
  std::uint32_t beacon_bytes = 8;
  unsigned max_retries = 8;      ///< per-frame retransmissions before drop
  std::size_t max_queue_frames = 4096;  ///< per-leaf bound, in frames (not runs)
  /// Reserved hub->leaf (actuation) window after the beacon; 0 disables the
  /// downlink phase entirely (pure-uplink sensing networks).
  double downlink_slot_s = 0.0;
  /// Largest payload an auto-sized slot must fit (only read when
  /// `slot_s <= 0`); matches `NodeConfig::frame_bytes`' default MTU.
  std::uint32_t auto_slot_mtu_bytes = 240;
  /// Headroom factor on the auto-sized slot (> 1 leaves room for the
  /// occasional second small frame, mirroring the Wi-R default's slack).
  double auto_slot_margin = 1.25;
  /// Smoothing factor for the per-node delivery-ratio / retry-rate EWMAs
  /// in `MacNodeStats` (updated once per superframe with attempts).
  double health_ewma_alpha = 0.25;
};

class TdmaBus {
 public:
  using DeliveryHandler = std::function<void(const Frame&, sim::Time)>;

  /// \param link the shared body-bus link model (energy/time per frame)
  TdmaBus(sim::Simulator& sim, const Link& link, TdmaConfig config = {},
          sim::TraceSink* trace = nullptr);

  /// Register a leaf node; heavier `slot_weight` grants more slots per
  /// superframe (rate-proportional allocation). Returns the node's id
  /// (1-based; 0 is the hub).
  NodeId add_node(std::string name, unsigned slot_weight = 1);

  /// The bus-wide id of stream tag `tag`, assigned on first use: ids are
  /// dense (0, 1, 2, ...) in first-use order, and re-interning a tag
  /// returns its id. Leaves stamp it into `Frame::stream`; the hub indexes
  /// its sessions by it. Set-up path only: frames carry the id, never the
  /// tag.
  StreamId intern_stream(const std::string& tag);

  /// The id of an already-interned `tag`, or `kNoStream`. Never inserts.
  [[nodiscard]] StreamId find_stream(const std::string& tag) const;

  /// Airtime, energies and clean frame error rate of one frame of a given
  /// payload size on this bus's link.
  struct PayloadCost {
    double airtime_s;
    double tx_j;
    double rx_j;
    double fer;
  };

  /// The cost row of `payload_bytes`: the same `Link` calls, made once per
  /// size and memoized for every size that fits a slot or the downlink
  /// window.
  [[nodiscard]] PayloadCost payload_cost(std::uint32_t payload_bytes);

  /// Queue `fragments` uplink frames at the node as one fragment run:
  /// `first` is the first fragment; fragment i carries `first.seq + i` and
  /// `first.payload_bytes`, except the last, which carries `last_bytes`
  /// (0: `first.payload_bytes` too). The MAC still sends, retries and
  /// drops every fragment as its own frame. Fragments past
  /// `max_queue_frames` are rejected from the tail, one overflow each.
  /// Returns the number accepted; a single frame is the default
  /// `fragments = 1`.
  std::uint32_t enqueue(NodeId node, Frame first, std::uint32_t fragments = 1,
                        std::uint32_t last_bytes = 0);

  /// Queue a hub->leaf (actuation) frame for transmission in the downlink
  /// window. Requires `downlink_slot_s > 0` and a frame that fits it.
  /// Returns false (and counts an overflow against `dst`) if the downlink
  /// queue is full.
  bool enqueue_downlink(NodeId dst, Frame frame);

  /// Invoked at the hub for every delivered frame.
  void set_delivery_handler(DeliveryHandler handler) { on_delivery_ = std::move(handler); }

  /// Invoked at the destination leaf for every delivered downlink frame.
  void set_downlink_handler(DeliveryHandler handler) { on_downlink_ = std::move(handler); }

  /// Invoked once per completed superframe with the boundary time (the end
  /// of the last slot) — the hub's batched inference engine flushes its
  /// staged streams here. Runs after every delivery of that superframe and
  /// before the next superframe is scheduled.
  using SuperframeHandler = std::function<void(sim::Time)>;
  void set_superframe_end_handler(SuperframeHandler handler) {
    on_superframe_end_ = std::move(handler);
  }

  /// Begin the superframe schedule at sim-time `t0`.
  void start(sim::Time t0 = 0.0);

  /// Stop issuing superframes (pending one finishes).
  void stop() { running_ = false; }

  // --- Fault hooks (no-ops on the clean path; see docs/robustness.md) ---

  /// Overlay a Gilbert–Elliott burst-loss process on the link's base frame
  /// error rate (both uplink and downlink draws). Non-owning; pass nullptr
  /// to restore the clean i.i.d. channel.
  void set_channel_fault(GilbertElliott* overlay) { channel_fault_ = overlay; }

  /// Install continuous channel hostility (SIR interference + body-motion
  /// fading). Same non-owning pattern as `set_channel_fault`; composition
  /// is base FER -> dynamics -> fault overlay.
  void set_channel_dynamics(ChannelDynamics* dynamics) { channel_dynamics_ = dynamics; }

  /// Account a frame the node's degradation controller shed before ever
  /// offering it to the schedule: counted as dropped (`dropped_shed`
  /// bucket) so the taxonomy still partitions offered-plus-shed traffic.
  void count_shed(NodeId node);

  /// Hub crash/restart. While down, superframes are elided (no beacon, no
  /// windows) but the cadence is kept so leaves re-sync on the next
  /// boundary; leaf queues become bounded store-and-retry buffers whose
  /// overflows are attributed to `frames_dropped_overflow`.
  void set_hub_up(bool up) { hub_up_ = up; }
  [[nodiscard]] bool hub_up() const { return hub_up_; }

  /// Node brownout/reboot. Powering a node off purges its uplink queue
  /// (every queued frame, not every run, counted as
  /// `frames_dropped_fault`), stops its beacon listening, and
  /// leaves its slots idle; downlink frames to it are dropped. Powering it
  /// back on rejoins the existing schedule at the next superframe.
  void set_node_powered(NodeId node, bool powered);

  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] double superframe_duration_s() const;
  /// Frames (not runs) queued at `node`.
  [[nodiscard]] std::size_t queue_depth(NodeId node) const;
  [[nodiscard]] const Link& link() const { return link_; }

 private:
  /// One queue entry: a message fragmented to the MTU. `head` is the next
  /// fragment to send; it advances in place (`seq + 1`, and `last_bytes`
  /// on the final fragment) until `left` reaches zero.
  struct FragmentRun {
    Frame head;
    std::uint32_t left;
    std::uint32_t last_bytes;
  };

  struct NodeState {
    unsigned weight = 1;
    std::deque<FragmentRun> queue;
    std::size_t frames = 0;  ///< fragments queued across all runs
    unsigned head_retries = 0;
    bool powered = true;
    // Cumulative-counter snapshots for the per-superframe EWMA deltas.
    std::uint64_t ewma_delivered = 0;
    std::uint64_t ewma_retried = 0;
  };

  void run_superframe();
  /// Charge `n` full-queue drops to `node`'s hub-down or hub-up overflow
  /// bucket.
  void count_overflow(NodeId node, std::uint64_t n);
  /// Retire the head fragment of `st`'s queue (delivered or ARQ-dropped).
  static void pop_fragment(NodeState& st);
  /// Per-node channel-health EWMA refresh at a superframe boundary.
  void update_health_ewmas();
  /// Frame-loss probability at time `t`: the link's clean FER `base_fer`
  /// for `payload_bytes`, shifted by the channel dynamics (motion/
  /// interference) and compounded with the burst-loss overlay, when either
  /// is installed.
  [[nodiscard]] double frame_loss_probability(sim::Time t, std::uint32_t payload_bytes,
                                              double base_fer);
  /// Transmit from `node` inside its slot window; returns airtime used.
  double run_slot(std::size_t node_idx, sim::Time slot_start);
  /// Drain the hub downlink queue inside its window; returns airtime used.
  double run_downlink(sim::Time window_start);

  sim::Simulator& sim_;
  const Link& link_;
  TdmaConfig config_;
  sim::TraceSink* trace_;
  std::vector<NodeState> nodes_;
  std::deque<Frame> downlink_queue_;
  /// `payload_cost` memo indexed by payload size; a negative airtime marks
  /// a row not yet computed. Bounded: only sizes that fit a slot or the
  /// downlink window are stored.
  std::vector<PayloadCost> costs_;
  /// Stream tag -> interned id; its size is the next id.
  std::unordered_map<std::string, StreamId> stream_ids_;
  MacStats stats_;
  DeliveryHandler on_delivery_;
  DeliveryHandler on_downlink_;
  SuperframeHandler on_superframe_end_;
  bool running_ = false;
  sim::Rng rng_;
  sim::Time started_at_ = 0.0;
  GilbertElliott* channel_fault_ = nullptr;
  ChannelDynamics* channel_dynamics_ = nullptr;
  bool hub_up_ = true;
};

}  // namespace iob::comm
