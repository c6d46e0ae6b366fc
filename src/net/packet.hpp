// Packet model.
//
// Sequence numbers are packet-granularity (one segment == one sequence
// unit), the convention ns-2 uses and the one under which the paper's
// results were produced. Payload size still matters for link serialization
// and queue byte accounting.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/time.hpp"
#include "util/inline_vec.hpp"

namespace tcppr::net {

using NodeId = int;
using FlowId = int;
using SeqNo = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FlowId kInvalidFlow = -1;

// kTcpClose is the FIN analogue the flow lifecycle layer (src/workload)
// sends after a transfer is fully acknowledged: it tells the receiver-side
// demux that the flow departed so its state can be reclaimed. Transports
// that never close (the paper's long-lived FTP flows) never see one.
enum class PacketType : std::uint8_t { kTcpData, kTcpAck, kTcpClose };

// Half-open SACK block [begin, end) in packet-granularity sequence space.
struct SackBlock {
  SeqNo begin = 0;
  SeqNo end = 0;
  friend constexpr bool operator==(const SackBlock&, const SackBlock&) = default;
};

// RFC 2018 caps a SACK option at 3 blocks (4 with the RFC 2883 D-SACK
// slot), so four inline slots cover every ACK without touching the heap.
using SackVec = util::InlineVec<SackBlock, 4>;
// Source routes in the paper's topologies are a handful of hops; eight
// inline slots cover the parking-lot and multipath configurations.
using RouteVec = util::InlineVec<NodeId, 8>;

// TCP header fields relevant at packet granularity. A real header is 40
// bytes; options (SACK blocks, timestamps) ride along for the variants that
// need them and are ignored by the ones that don't.
struct TcpHeader {
  FlowId flow = kInvalidFlow;
  SeqNo seq = 0;         // data: segment number
  SeqNo ack = 0;         // ack: next expected segment (cumulative)
  bool is_retransmission = false;
  // Transmission serial of the data segment (distinguishes original from
  // retransmission; stands in for the Eifel timestamp / retransmit count).
  std::uint32_t tx_serial = 0;
  // Echoed tx_serial on ACKs (timestamp-echo analogue used by Eifel).
  std::uint32_t echo_serial = 0;
  // Sender timestamp echoed by the receiver (seconds); Eifel option.
  double ts_value = 0.0;
  double ts_echo = 0.0;
  SackVec sack;                    // up to 3 blocks (RFC 2018), inline
  std::optional<SackBlock> dsack;  // first block duplicate (RFC 2883)
};

struct Packet {
  std::uint64_t uid = 0;  // unique per transmission, assigned by Network
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  PacketType type = PacketType::kTcpData;
  TcpHeader tcp;

  // Source route (list of node ids, excluding src, ending at dst). When
  // non-empty, forwarding follows it instead of per-node routing tables —
  // this is how per-packet multi-path routing is realized.
  RouteVec source_route;
  std::uint32_t route_pos = 0;
  int path_id = -1;  // which multipath member was sampled (stats/debug)

  sim::TimePoint sent_at;          // time handed to the first link
  sim::TimePoint enqueued_at;      // last queue entry time (queue stats)
  int hops = 0;

  bool is_ack() const { return type == PacketType::kTcpAck; }
};

}  // namespace tcppr::net
