// TCP-SACK sender: scoreboard + pipe loss recovery in the style of ns-2's
// sack1 / RFC 3517. This is the paper's "standard TCP" comparator and the
// base class for the reordering mitigations of Blanton & Allman [3]
// (tcp/mitigation.hpp), time-delayed fast recovery (tcp/tdfr.hpp), and
// Eifel (tcp/eifel.hpp).
//
// Loss is inferred two ways, both gated on dupthresh so the [3] mitigations
// work by raising it: (a) dupacks >= dupthresh, (b) a segment with at least
// dupthresh SACKed segments above it (FACK-style gap rule).
#pragma once

#include <cstdint>
#include <map>

#include "tcp/rto.hpp"

namespace tcppr::tcp {

class SackSender : public RtoSender {
 public:
  SackSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {});

  const char* algorithm() const override { return "sack"; }
  SenderInvariantView invariant_view() const override;

  int effective_dupthresh() const;
  double raw_dupthresh() const { return dupthresh_; }
  double pipe() const;

 protected:
  void on_start() override;
  void on_ack_packet(const net::Packet& ack) override;

  // ---- hooks for subclasses -------------------------------------------
  // Recovery entry condition (TD-FR replaces dupack counting by a timer).
  virtual bool loss_detected() const;
  // Whether the SACK gap rule may mark losses before recovery is entered.
  virtual bool mark_losses_outside_recovery() const { return true; }
  // Extra per-dupack processing (TD-FR arms its timer here).
  virtual void on_dupack_hook(const net::Packet& ack) { (void)ack; }
  // Extra processing when the cumulative ACK advances.
  virtual void on_new_ack_hook(const net::Packet& ack) { (void)ack; }
  // Called when a retransmission is discovered to have been spurious.
  // reorder_extent = duplicate ACKs observed in the episode (the measure
  // the [3] dupthresh adjustments feed on). Plain TCP-SACK takes no action.
  virtual void on_spurious_retransmit(SeqNo /*seq*/, int /*reorder_extent*/) {
  }

  // ---- shared machinery ------------------------------------------------
  void update_scoreboard(const net::Packet& ack);
  void mark_lost_by_sack();
  void enter_recovery();
  void undo_last_reduction(bool full_restore);
  void send_more();
  void on_timeout() override;
  void advance_una(SeqNo ack);

  bool process_dsack_ = false;  // mitigations switch this on

  double dupthresh_;       // adaptive in mitigation subclasses
  int episode_dupacks_ = 0;       // dupacks seen in the current loss episode
  int last_episode_dupacks_ = 0;  // final count of the previous episode
  SeqNo highest_sacked_ = -1;

  bool peer_sends_sack_ = false;    // any SACK block seen from this peer

  // Saved congestion state at the most recent window reduction (undo).
  double saved_cwnd_ = 0;
  double saved_ssthresh_ = 0;

  // The scoreboard, as flags on the transmit records (RtoSender): only
  // segments below snd_nxt_ carry marks, never both kSacked and kLost,
  // and kRtxInFlight only on a kLost one.
  enum : std::uint8_t { kSacked = 1, kLost = 2, kRtxInFlight = 4 };
  void set_lost(Segment& s, SeqNo seq);
  std::size_t sacked_count_ = 0;
  std::size_t lost_count_ = 0;
  std::size_t rtx_count_ = 0;
  SeqNo next_seg_ = 0;     // no lost, unretransmitted seq below this
  SeqNo lost_marked_ = 0;  // every unSACKed seq below this is marked lost
  // Retransmitted segments below snd_una_, kept for DSACK/Eifel spurious
  // detection; pruned as the window advances.
  struct RtxRecord {
    sim::TimePoint rtx_time;
    int episode_dupacks;
  };
  std::map<SeqNo, RtxRecord> recent_rtx_;
};

}  // namespace tcppr::tcp
