#include "validate/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "sim/random.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "validate/determinism.hpp"
#include "validate/invariants.hpp"
#include "workload/workload.hpp"

namespace tcppr::validate {

const char* to_string(FuzzCase::Topology topology) {
  constexpr const char* kNames[] = {"dumbbell", "parking-lot", "multipath",
                                    "random-graph"};
  return kNames[static_cast<int>(topology)];
}

FuzzCase sample_fuzz_case(std::uint64_t seed) {
  sim::Rng rng = sim::Rng(seed).fork(0xFA55);
  FuzzCase c;
  c.seed = seed;

  const double topo_weights[] = {0.35, 0.2, 0.2, 0.25};
  c.topology = static_cast<FuzzCase::Topology>(rng.categorical(topo_weights, 4));

  const auto& variants = harness::all_variants();
  c.flows = c.topology == FuzzCase::Topology::kMultipath
                ? 1
                : 1 + static_cast<int>(rng.uniform_int(4));
  c.variants.clear();
  for (int i = 0; i < c.flows; ++i) {
    c.variants.push_back(variants[rng.uniform_int(variants.size())]);
  }

  c.duration_s = rng.uniform(3.0, 8.0);
  c.cross_traffic =
      c.topology == FuzzCase::Topology::kParkingLot && rng.bernoulli(0.5);
  c.loss_rate = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.05) : 0.0;
  c.jitter_ms = rng.bernoulli(0.5) ? rng.uniform(0.0, 20.0) : 0.0;
  c.flap = rng.bernoulli(0.3);
  c.flap_mean_up_s = rng.uniform(0.5, 2.0);
  c.flap_mean_down_s = rng.uniform(0.05, 0.4);
  c.reconfigure_mid_run = rng.bernoulli(0.3);
  const double eps_values[] = {0, 1, 4, 10, 500};
  c.epsilon = eps_values[rng.uniform_int(5)];
  c.graph_nodes = 4 + static_cast<int>(rng.uniform_int(5));
  // Churn draws come last (see the header): the prefix of the stream is
  // exactly what the pre-churn sampler consumed, so seeds keep producing
  // the same topology/fault mix they always did.
  c.churn_rate = rng.bernoulli(0.3) ? rng.uniform(100.0, 800.0) : 0.0;
  c.churn_kind = static_cast<workload::WorkloadKind>(rng.uniform_int(3));
  // Telemetry draws after churn: same seed-prefix rule, next dimension.
  c.telemetry = rng.bernoulli(0.35);
  return c;
}

std::string describe(const FuzzCase& c) {
  char buf[384];
  std::string variants;
  for (const auto v : c.variants) {
    if (!variants.empty()) variants += ",";
    variants += harness::to_string(v);
  }
  char churn[48];
  if (c.churn_rate > 0) {
    std::snprintf(churn, sizeof(churn), "%s@%.0f/s",
                  workload::to_string(c.churn_kind), c.churn_rate);
  } else {
    std::snprintf(churn, sizeof(churn), "off");
  }
  std::snprintf(
      buf, sizeof(buf),
      "topology=%s flows=%d variants=[%s] dur=%.2fs cross=%d loss=%.4f "
      "jitter=%.1fms flap=%d(up=%.2fs,down=%.2fs) reconf=%d eps=%g nodes=%d "
      "batch=%d par=%d churn=%s telemetry=%d",
      to_string(c.topology), c.flows, variants.c_str(), c.duration_s,
      c.cross_traffic ? 1 : 0, c.loss_rate, c.jitter_ms, c.flap ? 1 : 0,
      c.flap_mean_up_s, c.flap_mean_down_s, c.reconfigure_mid_run ? 1 : 0,
      c.epsilon, c.graph_nodes, c.batching ? 1 : 0, c.par_lps, churn,
      c.telemetry ? 1 : 0);
  return buf;
}

std::string reproducer(const FuzzCase& c) {
  std::string cmd = "tcppr_sim --fuzz-seed " + std::to_string(c.seed);
  if (c.par_lps >= 1) cmd += " --par " + std::to_string(c.par_lps);
  if (!c.batching) cmd += " --no-batch";
  return cmd;
}

namespace {

std::unique_ptr<harness::Scenario> build_random_graph(const FuzzCase& c,
                                                      sim::Rng& rng) {
  auto s = std::make_unique<harness::Scenario>();
  net::Network& nw = s->network;
  const int n = std::max(4, c.graph_nodes);
  for (int i = 0; i < n; ++i) nw.add_node();

  net::LinkConfig link;
  link.bandwidth_bps = 10e6;
  link.delay = sim::Duration::millis(5);
  link.queue_limit_packets = 50;
  // Ring plus two chords: every pair of nodes has at least two
  // edge-disjoint routes, so flapped or reconfigured links reroute rather
  // than partition.
  for (int i = 0; i < n; ++i) {
    auto [fwd, rev] = nw.add_duplex_link(i, (i + 1) % n, link);
    s->bottlenecks.push_back(fwd);
    (void)rev;
  }
  auto [c1, c1r] = nw.add_duplex_link(0, n / 2, link);
  s->bottlenecks.push_back(c1);
  (void)c1r;
  if (n >= 6) {
    auto [c2, c2r] = nw.add_duplex_link(1, 1 + n / 2, link);
    s->bottlenecks.push_back(c2);
    (void)c2r;
  }
  nw.compute_static_routes();
  s->src_host = 0;
  s->dst_host = n / 2;

  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  for (int i = 0; i < c.flows; ++i) {
    const net::NodeId src = static_cast<net::NodeId>(rng.uniform_int(n));
    net::NodeId dst = static_cast<net::NodeId>(rng.uniform_int(n));
    if (dst == src) dst = (dst + 1 + static_cast<net::NodeId>(n) / 2) % n;
    const auto start = sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0));
    s->add_flow(c.variants[static_cast<std::size_t>(i)], src, dst,
                /*flow=*/i + 1, tcp, pr, start);
  }
  return s;
}

std::unique_ptr<harness::Scenario> build_scenario(const FuzzCase& c,
                                                  sim::Rng& rng) {
  switch (c.topology) {
    case FuzzCase::Topology::kDumbbell:
    case FuzzCase::Topology::kParkingLot: {
      std::unique_ptr<harness::Scenario> s;
      net::FlowId first_flow = 1;
      if (c.topology == FuzzCase::Topology::kDumbbell) {
        harness::DumbbellConfig cfg;
        cfg.pr_flows = cfg.sack_flows = 0;
        cfg.seed = c.seed;
        s = harness::make_dumbbell(cfg);
      } else {
        harness::ParkingLotConfig cfg;
        cfg.pr_flows = cfg.sack_flows = 0;
        cfg.with_cross_traffic = c.cross_traffic;
        cfg.seed = c.seed;
        s = harness::make_parking_lot(cfg);
        first_flow = 100;
      }
      for (int i = 0; i < c.flows; ++i) {
        const auto start = sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0));
        s->add_flow(c.variants[static_cast<std::size_t>(i)], s->src_host,
                    s->dst_host, first_flow + i, tcp::TcpConfig(),
                    core::TcpPrConfig(), start);
      }
      return s;
    }
    case FuzzCase::Topology::kMultipath: {
      harness::MultipathConfig cfg;
      cfg.variant = c.variants.empty() ? harness::TcpVariant::kTcpPr
                                       : c.variants.front();
      cfg.epsilon = c.epsilon;
      cfg.seed = c.seed;
      return harness::make_multipath(cfg);
    }
    case FuzzCase::Topology::kRandomGraph:
      return build_random_graph(c, rng);
  }
  TCPPR_CHECK(false);
  return nullptr;
}

}  // namespace

FuzzResult run_fuzz_case(const FuzzCase& c) {
  sim::Rng rng = sim::Rng(c.seed).fork(0xB01D);
  std::unique_ptr<harness::Scenario> scenario = build_scenario(c, rng);
  harness::Scenario& s = *scenario;
  DeliveryHasher hasher;
  s.network.add_trace_sink(&hasher);

  harness::RunConfig rc;
  rc.window.total = sim::Duration::seconds(c.duration_s);
  rc.window.measured = sim::Duration::zero();
  rc.loss_rate = c.loss_rate;
  rc.jitter_ms = c.jitter_ms;
  if (c.flap) {
    rc.flap = net::LinkFlapper::Config{
        sim::Duration::seconds(c.flap_mean_up_s),
        sim::Duration::seconds(c.flap_mean_down_s), c.seed ^ 0x5Au};
  }
  rc.reconfigure_mid_run = c.reconfigure_mid_run;
  rc.fault_rng = rng;
  // Fuzz cases are small, so the taps always carry the exact baseline:
  // every sweep is a sketch-vs-ground-truth differential check.
  rc.telemetry = c.telemetry;
  rc.validate = true;
  rc.par_lps = c.par_lps;
  rc.batching = c.batching;
  // Background churn: short dynamic transfers between the src/dst hosts
  // alongside the measured flows, so sender/receiver lifecycles, slot
  // quarantine and idle reaping run under the checker and the oracle.
  if (c.churn_rate > 0) {
    workload::WorkloadConfig wc;
    wc.kind = c.churn_kind;
    wc.arrival_rate = c.churn_rate;
    wc.onoff_sources = 16;
    wc.max_segments = 64;  // short transfers: real churn inside duration_s
    wc.max_concurrent = 64;
    wc.id_slots = 256;
    wc.quarantine = sim::Duration::seconds(1);
    wc.reap_idle = sim::Duration::millis(400);
    wc.reap_sweep = sim::Duration::millis(100);
    wc.seed = c.seed ^ 0xC4u;
    rc.workload = wc;
  }
  harness::Run run(s, std::move(rc));

  // Corruption knobs for the checker's self-test, scheduled before run()
  // so parallel adoption moves them onto the shard owning their target.
  const auto mid = sim::TimePoint::from_seconds(c.duration_s / 2);
  if (c.corrupt_transit_for_test && !s.bottlenecks.empty()) {
    s.bottlenecks.front()->corrupt_transit_accounting_for_test();
  }
  if (c.corrupt_delivery_for_test && !s.receivers.empty()) {
    tcp::Receiver* rx = s.receivers.front().get();
    s.schedule_action(mid, rx->local_node(),
                      [rx] { rx->corrupt_delivered_hash_for_test(); });
  }
  if (c.corrupt_telemetry_for_test && run.telemetry() != nullptr) {
    telemetry::Telemetry* t = run.telemetry();
    s.schedule_action(mid, /*affinity=*/0,
                      [t] { t->corrupt_sketch_for_test(); });
  }

  run.run();
  const InvariantChecker& checker = *run.checker();
  FuzzResult result;
  result.ok = checker.ok();
  result.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    result.first_violation = checker.violations().front().what;
  }
  result.delivered = s.network.conservation().delivered_to_agent;
  result.delivery_hash = hasher.hash();
  return result;
}

FuzzCase minimize_fuzz_case(const FuzzCase& failing, int max_runs) {
  FuzzCase best = failing;
  int runs = 0;
  const auto still_fails = [&](const FuzzCase& candidate) {
    if (runs >= max_runs) return false;
    ++runs;
    return !run_fuzz_case(candidate).ok;
  };

  // Each step simplifies one dimension and reports whether it applied.
  // Telemetry first: it is pure observation, so a failure that survives
  // without it was never a telemetry bug and every later simplification
  // runs cheaper.
  using Step = bool (*)(FuzzCase&);
  static constexpr Step kSteps[] = {
      [](FuzzCase& t) {
        if (!t.telemetry) return false;
        t.telemetry = t.corrupt_telemetry_for_test = false;
        return true;
      },
      [](FuzzCase& t) { return std::exchange(t.churn_rate, 0.0) > 0; },
      [](FuzzCase& t) { return std::exchange(t.reconfigure_mid_run, false); },
      [](FuzzCase& t) { return std::exchange(t.flap, false); },
      [](FuzzCase& t) { return std::exchange(t.jitter_ms, 0.0) > 0; },
      [](FuzzCase& t) { return std::exchange(t.loss_rate, 0.0) > 0; },
      [](FuzzCase& t) { return std::exchange(t.cross_traffic, false); },
      [](FuzzCase& t) {
        if (t.flows <= 1) return false;
        t.flows = 1;
        t.variants.resize(1);
        return true;
      },
      [](FuzzCase& t) {
        if (t.duration_s <= 1.5) return false;
        t.duration_s = std::max(1.0, t.duration_s / 2);
        return true;
      },
      [](FuzzCase& t) {
        return std::exchange(t.topology, FuzzCase::Topology::kDumbbell) !=
               FuzzCase::Topology::kDumbbell;
      },
  };
  // One simplification per pass, greedily accepted; repeat until a full
  // pass changes nothing or the run budget is spent.
  bool changed = true;
  while (changed && runs < max_runs) {
    changed = false;
    for (const Step step : kSteps) {
      FuzzCase t = best;
      if (step(t) && still_fails(t)) {
        best = std::move(t);
        changed = true;
        break;
      }
    }
  }
  return best;
}

int run_fuzz_campaign(std::uint64_t first_seed, int count, int jobs,
                      bool quiet, const std::string& artifact_dir,
                      int par_lps, bool batching) {
  const auto case_for = [&](std::uint64_t seed) {
    FuzzCase c = sample_fuzz_case(seed);
    c.par_lps = par_lps;
    c.batching = batching;
    return c;
  };
  std::vector<FuzzResult> results(static_cast<std::size_t>(count));
  harness::parallel_for(jobs, count, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        run_fuzz_case(case_for(first_seed + static_cast<std::uint64_t>(i)));
  });

  int failures = 0;
  bool artifact_dir_ready = false;
  for (int i = 0; i < count; ++i) {
    const FuzzResult& r = results[static_cast<std::size_t>(i)];
    if (r.ok) continue;
    ++failures;
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const FuzzCase c = case_for(seed);
    std::fprintf(stderr, "FUZZ FAIL: %s  # %s\n", reproducer(c).c_str(),
                 describe(c).c_str());
    std::fprintf(stderr, "  first violation: %s\n",
                 r.first_violation.c_str());
    std::string minimized;
    if (!quiet) {
      const FuzzCase min = minimize_fuzz_case(c);
      minimized = describe(min);
      std::fprintf(stderr, "  minimized: %s\n", minimized.c_str());
    }
    if (!artifact_dir.empty()) {
      if (!artifact_dir_ready) {
        std::error_code ec;
        std::filesystem::create_directories(artifact_dir, ec);
        artifact_dir_ready = !ec;
        if (ec) {
          std::fprintf(stderr, "fuzz: cannot create artifact dir %s: %s\n",
                       artifact_dir.c_str(), ec.message().c_str());
        }
      }
      if (artifact_dir_ready) {
        const std::string path = artifact_dir + "/fuzz-fail-" +
                                 std::to_string(seed) + ".txt";
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          std::fprintf(f, "reproduce: %s\n", reproducer(c).c_str());
          std::fprintf(f, "config: %s\n", describe(c).c_str());
          std::fprintf(f, "first violation: %s\n", r.first_violation.c_str());
          if (!minimized.empty()) {
            std::fprintf(f, "minimized: %s\n", minimized.c_str());
          }
          std::fclose(f);
        } else {
          std::fprintf(stderr, "fuzz: cannot write %s\n", path.c_str());
        }
      }
    }
  }
  return failures;
}

}  // namespace tcppr::validate
