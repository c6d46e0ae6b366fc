// Common machinery for every TCP sender variant: node attachment, segment
// construction, application data source, completion, statistics, and the
// cwnd trace hook. Loss detection and window management live in the
// variants (tcp/reno.hpp, tcp/sack.hpp, core/tcp_pr.hpp, ...).
#pragma once

#include <functional>
#include <memory>

#include "net/network.hpp"
#include "net/node.hpp"
#include "obs/probe.hpp"
#include "sim/scheduler.hpp"
#include "tcp/types.hpp"

namespace tcppr::tcp {

// What the sender has to transmit. Bulk sources never run dry (FTP model
// used throughout the paper); fixed sources end after N segments.
class DataSource {
 public:
  virtual ~DataSource() = default;
  // True when segment `seq` exists to be sent.
  virtual bool has_segment(SeqNo seq) const = 0;
  // Total segments, or -1 for unbounded.
  virtual SeqNo total_segments() const = 0;
};

class BulkDataSource final : public DataSource {
 public:
  bool has_segment(SeqNo) const override { return true; }
  SeqNo total_segments() const override { return -1; }
};

class FixedDataSource final : public DataSource {
 public:
  explicit FixedDataSource(SeqNo segments) : segments_(segments) {}
  bool has_segment(SeqNo seq) const override { return seq < segments_; }
  SeqNo total_segments() const override { return segments_; }

 private:
  SeqNo segments_;
};

// Uniform snapshot of the sender-side state-machine invariants, exported
// by every variant for the validation layer (src/validate). Fields are a
// lowest-common-denominator view: family-specific structure (SACK
// scoreboard consistency, TCP-PR bookkeeping) is pre-checked by the
// variant and folded into `scoreboard_ok`.
struct SenderInvariantView {
  bool valid = false;  // false: variant exports no view (checker skips it)
  double cwnd = 0;
  double ssthresh = 0;
  // Variant-specific lower bound on ssthresh (2.0 for the RFC 5681
  // family; 1.0 for TCP-PR, whose halving floors at one segment).
  double ssthresh_floor = 0;
  SeqNo snd_una = 0;
  SeqNo snd_nxt = 0;
  // Per-segment records the variant tracks inside [snd_una, snd_nxt),
  // counted from its record ring's base and size. Checked against
  // snd_nxt - snd_una when window_bookkeeping is set (Reno, SACK and
  // TCP-PR, which keep one record per segment of the window).
  bool window_bookkeeping = false;
  std::int64_t tracked_in_window = 0;
  bool has_rto = false;  // RFC 2988 estimator present (not TCP-PR)
  sim::Duration rto = sim::Duration::zero();
  sim::Duration min_rto = sim::Duration::zero();
  sim::Duration max_rto = sim::Duration::zero();
  // Logical armed state of the loss-detection timer (DeadlineTimer::armed:
  // the callback will run, whether or not the physical scheduler event is
  // currently parked at an earlier deferred shot).
  bool rtx_timer_armed = false;
  bool rtx_timer_needed = false;  // data outstanding
  // true: armed <=> needed. false: only needed => armed is required
  // (TCP-PR's unblock timer may legitimately outlive its backoff).
  bool rtx_timer_strict = false;
  bool scoreboard_ok = true;  // family-specific structural consistency
};

class SenderBase : public net::Agent {
 public:
  SenderBase(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config);
  ~SenderBase() override;

  SenderBase(const SenderBase&) = delete;
  SenderBase& operator=(const SenderBase&) = delete;

  // Begins transmission (first window) immediately.
  void start();
  bool started() const { return started_; }

  // Default source is bulk; call before start().
  void set_data_source(std::unique_ptr<DataSource> source);
  // Invoked once when a fixed-size transfer is fully acknowledged.
  void set_completion_callback(std::function<void()> cb) {
    completion_cb_ = std::move(cb);
  }
  bool complete() const { return complete_; }

  // Observe (time, cwnd) after every change; for traces and examples.
  void set_cwnd_listener(std::function<void(sim::TimePoint, double)> fn) {
    cwnd_listener_ = std::move(fn);
  }

  // Attaches the flow-state observability layer: cwnd/ssthresh/estimator
  // samples flow into `registry` from now on (src/obs). Emits the current
  // cwnd immediately so every series starts with a sample.
  void set_metric_registry(obs::MetricRegistry& registry);

  void deliver(net::Packet&& pkt) final;

  const SenderStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }
  FlowId flow() const { return flow_; }
  net::NodeId local_node() const { return local_; }

  // Re-points the sender (and every timer a variant owns) at the
  // scheduler shard owning its node. Parallel-mode adoption only; must
  // run before start(). Variants with timers override and chain up.
  virtual void rebind_scheduler(sim::Scheduler& shard) {
    TCPPR_CHECK(!started_);
    sched_override_ = &shard;
  }
  virtual double cwnd() const = 0;
  // Name of the variant, for experiment tables.
  virtual const char* algorithm() const = 0;

  // Invariant snapshot for src/validate; the default (valid == false)
  // means "nothing to check". Safe to call between scheduler events only.
  virtual SenderInvariantView invariant_view() const { return {}; }

 protected:
  virtual void on_start() = 0;
  virtual void on_ack_packet(const net::Packet& ack) = 0;

  // Builds and transmits one data segment. tx_serial distinguishes
  // (re)transmissions of the same seq. Inside a BurstScope the segment is
  // staged instead of originated immediately.
  void transmit_segment(SeqNo seq, bool is_retransmission,
                        std::uint32_t tx_serial);

  // RAII send-burst: transmit_segment calls within the scope stage their
  // segments, and scope exit hands the whole burst to the node as one
  // originate_burst (one routing/admission sweep, and one bulk queue
  // admission once the link's transmitter is busy). Staging only defers the
  // link hand-off past the later segments' construction — construction
  // touches no shared state — so per-packet behavior is identical; scopes
  // nest (the outermost flushes).
  class BurstScope {
   public:
    explicit BurstScope(SenderBase& sender) : sender_(sender) {
      ++sender_.burst_depth_;
    }
    ~BurstScope() {
      if (--sender_.burst_depth_ == 0) sender_.flush_burst();
    }
    BurstScope(const BurstScope&) = delete;
    BurstScope& operator=(const BurstScope&) = delete;

   private:
    SenderBase& sender_;
  };

  bool source_has(SeqNo seq) const { return source_->has_segment(seq); }
  // Called by variants whenever the cumulative ACK point advances; handles
  // stats and completion detection.
  void note_progress(SeqNo cum_ack);
  void notify_cwnd(double cwnd);

  sim::Scheduler& sched() {
    return sched_override_ != nullptr ? *sched_override_
                                      : network_.scheduler();
  }
  sim::TimePoint now() const {
    return sched_override_ != nullptr ? sched_override_->now()
                                      : network_.scheduler().now();
  }
  net::Network& network() { return network_; }

  TcpConfig config_;
  SenderStats stats_;
  // Disabled until set_metric_registry; every emission is guarded by
  // `if (probe_)`, one predictable branch when observability is off.
  obs::FlowProbe probe_;

 private:
  friend class BurstScope;
  void flush_burst();

  net::Network& network_;
  sim::Scheduler* sched_override_ = nullptr;  // parallel mode: LP shard
  net::PacketBatch burst_;   // segments staged by the active BurstScope
  int burst_depth_ = 0;
  net::NodeId local_;
  net::NodeId remote_;
  FlowId flow_;
  std::unique_ptr<DataSource> source_;
  std::function<void()> completion_cb_;
  std::function<void(sim::TimePoint, double)> cwnd_listener_;
  bool started_ = false;
  bool complete_ = false;
};

}  // namespace tcppr::tcp
