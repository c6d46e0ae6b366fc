// Behavioural tests for the SACK sender (scoreboard/pipe recovery) and
// TD-FR's timer-deferred fast retransmit.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "tcp/reno.hpp"
#include "tcp/sack.hpp"
#include "tcp/tdfr.hpp"
#include "test_util.hpp"

namespace tcppr::tcp {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

void drop_first_tx_of(net::Link* link, std::set<net::SeqNo> targets) {
  auto counts = std::make_shared<std::map<net::SeqNo, int>>();
  link->set_drop_filter([counts, targets](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    if (!targets.contains(pkt.tcp.seq)) return false;
    return ++(*counts)[pkt.tcp.seq] == 1;
  });
}

TEST(Sack, CompletesFixedTransferCleanly) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;  // below the queue limit: no self-induced losses
  auto* sender = f.add_flow(TcpVariant::kSack, 1, config);
  sender->set_data_source(std::make_unique<FixedDataSource>(500));
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(30);
  EXPECT_TRUE(done);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
}

TEST(Sack, SingleLossRecoveredBySingleRetransmit) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = f.add_flow(TcpVariant::kSack, 1, config);
  drop_first_tx_of(f.fwd, {30});
  sender->start();
  f.run_for(10);
  EXPECT_EQ(sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(sender->stats().retransmissions, 1u);
  EXPECT_EQ(sender->stats().timeouts, 0u);
}

TEST(Sack, MultipleLossesOneWindowOneHalving) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 40;
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  drop_first_tx_of(f.fwd, {50, 52, 54, 56});
  sack->start();
  f.run_for(15);
  EXPECT_EQ(sack->stats().cwnd_halvings, 1u);
  EXPECT_EQ(sack->stats().timeouts, 0u);
  EXPECT_GE(sack->stats().retransmissions, 4u);
  EXPECT_GT(sack->stats().segments_acked, 1000);
}

TEST(Sack, PipeNeverWildlyExceedsWindow) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 60;
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  f.fwd->set_loss_model(0.05, sim::Rng(3));
  sack->start();
  // Invariants sampled during the run: pipe can transiently exceed cwnd
  // right after a halving, but can never exceed the sequence range in
  // flight, and the range itself stays near the window.
  for (int i = 1; i <= 100; ++i) {
    f.sched.schedule_at(sim::TimePoint::from_seconds(0.2 * i), [&] {
      const double range =
          static_cast<double>(sack->snd_nxt() - sack->snd_una());
      EXPECT_LE(sack->pipe(), range + 1e-9);
      EXPECT_GE(sack->pipe(), 0.0);
    });
  }
  f.run_for(21);
}

TEST(Sack, TimeoutOnTotalOutageThenRecovery) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  f.sched.schedule_at(sim::TimePoint::from_seconds(1.0), [&] {
    f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(7.0), [&] {
    f.fwd->set_drop_filter(nullptr);
  });
  sender->start();
  f.run_for(30);
  EXPECT_GE(sender->stats().timeouts, 1u);
  EXPECT_GT(sender->stats().segments_acked, 1000);
}

// Go-back-N after an RTO. The data path is cut while a window is in
// flight, so the whole flight is lost and the receiver buffers nothing
// above snd_una; the path is back before the timeout fires. Every resend
// below the pre-timeout snd_nxt must be flagged as a retransmission and,
// by Karn's rule, feed the RTT estimator no sample.
template <typename Sender>
void expect_go_back_n_resends_are_retransmissions(TcpVariant variant) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 20;  // below the queue limit: the cut is the only loss
  auto* sender = dynamic_cast<Sender*>(f.add_flow(variant, 1, config));
  ASSERT_NE(sender, nullptr);
  bool cut = false;
  std::vector<net::Packet> crossed;  // data through the bottleneck after it
  f.fwd->set_drop_filter([&](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    if (cut) return true;
    if (f.sched.now() > sim::TimePoint::from_seconds(1.0)) {
      crossed.push_back(pkt);
    }
    return false;
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(1.0), [&] { cut = true; });
  net::SeqNo una = 0;
  net::SeqNo nxt = 0;
  double srtt = 0;
  f.sched.schedule_at(sim::TimePoint::from_seconds(1.5), [&] {
    ASSERT_EQ(sender->stats().timeouts, 0u);
    una = sender->snd_una();
    nxt = sender->snd_nxt();
    srtt = sender->rto_estimator().srtt().as_seconds();
    cut = false;
  });
  for (int ms = 1502; ms < 10000; ms += 2) {
    f.sched.schedule_at(sim::TimePoint::from_seconds(ms / 1000.0), [&] {
      if (sender->snd_una() <= nxt) {
        EXPECT_EQ(sender->rto_estimator().srtt().as_seconds(), srtt)
            << "RTT sample at snd_una " << sender->snd_una();
      }
    });
  }
  sender->start();
  f.run_for(10);
  EXPECT_GE(sender->stats().timeouts, 1u);
  ASSERT_GT(nxt, una);
  EXPECT_GT(sender->snd_una(), nxt);
  std::set<net::SeqNo> resent;
  for (const net::Packet& pkt : crossed) {
    if (pkt.tcp.seq >= nxt) continue;
    EXPECT_TRUE(pkt.tcp.is_retransmission) << "seq " << pkt.tcp.seq;
    resent.insert(pkt.tcp.seq);
  }
  EXPECT_EQ(resent.size(), static_cast<std::size_t>(nxt - una));
  EXPECT_EQ(*resent.begin(), una);
}

TEST(GoBackN, SackResendsAreRetransmissionsWithoutRttSamples) {
  expect_go_back_n_resends_are_retransmissions<SackSender>(TcpVariant::kSack);
}

TEST(GoBackN, RenoResendsAreRetransmissionsWithoutRttSamples) {
  expect_go_back_n_resends_are_retransmissions<RenoSender>(TcpVariant::kReno);
}

TEST(Sack, ReorderingCausesSpuriousRetransmits) {
  // A 25 ms jitter link (implemented by alternating path delay via two
  // routes is not available here, so use the multipath harness instead) —
  // here we simply check the dupthresh gap rule fires under induced
  // reordering created by delaying one segment through drop+later arrival.
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  drop_first_tx_of(f.fwd, {30});
  sender->start();
  f.run_for(5);
  // The retransmitted segment arrives once: no duplicate at the receiver.
  EXPECT_EQ(f.receiver()->stats().duplicates, 0u);
}

TEST(Sack, EffectiveDupthreshClampedByWindow) {
  PathFixture f;
  tcp::TcpConfig config;
  config.dupthresh = 100;  // absurd: must clamp to cwnd-1
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  sack->start();
  f.run_for(0.1);
  EXPECT_LE(sack->effective_dupthresh(),
            static_cast<int>(sack->cwnd()) + 1);
  EXPECT_GE(sack->effective_dupthresh(), 3);
}

TEST(TdFr, NoFastRetransmitBeforeWaitExpires) {
  PathFixture f(10e6, sim::Duration::millis(40));
  auto* tdfr = dynamic_cast<TdFrSender*>(f.add_flow(TcpVariant::kTdFr, 1));
  drop_first_tx_of(f.fwd, {30});
  tdfr->start();
  f.run_for(10);
  // The drop is eventually repaired (timer path), and only once.
  EXPECT_EQ(tdfr->stats().fast_retransmits, 1u);
  EXPECT_EQ(tdfr->stats().timeouts, 0u);
  EXPECT_GT(tdfr->stats().segments_acked, 500);
}

TEST(TdFr, PersistentProgressCancelsWait) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* tdfr =
      dynamic_cast<TdFrSender*>(f.add_flow(TcpVariant::kTdFr, 1, config));
  tdfr->start();
  f.run_for(10);
  // No losses: no recovery episodes at all.
  EXPECT_EQ(tdfr->stats().fast_retransmits, 0u);
  EXPECT_EQ(tdfr->stats().retransmissions, 0u);
}

TEST(TdFr, SlowerRepairThanNewReno) {
  // TD-FR rides on NewReno, so against a NewReno baseline the trajectories
  // are identical up to the drop; the deferred retransmit must then repair
  // the hole measurably later (>= srtt/2 past the first dupack instead of
  // at the third dupack).
  const auto repair_time = [](TcpVariant v) {
    PathFixture f(10e6, sim::Duration::millis(30));
    tcp::TcpConfig config;
    config.max_cwnd = 30;
    auto* sender = f.add_flow(v, 1, config);
    drop_first_tx_of(f.fwd, {100});
    sender->start();
    while (f.receiver()->rcv_next() <= 100 &&
           f.sched.now() < sim::TimePoint::from_seconds(10)) {
      f.run_for(0.001);
    }
    return f.sched.now().as_seconds();
  };
  const double t_newreno = repair_time(TcpVariant::kNewReno);
  const double t_tdfr = repair_time(TcpVariant::kTdFr);
  // srtt/2 here is ~31 ms; allow the dupack spacing it skips.
  EXPECT_GT(t_tdfr, t_newreno + 0.01);
  EXPECT_LT(t_tdfr, t_newreno + 1.0);  // but far quicker than an RTO
}

}  // namespace
}  // namespace tcppr::tcp
