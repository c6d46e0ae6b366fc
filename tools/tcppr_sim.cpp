// tcppr_sim — scenario driver CLI.
//
// Runs any of the paper's topologies with any sender variant and prints
// per-flow results plus the fairness metrics; optionally writes an
// ns-2-style packet trace. Everything the figure benches do, one run at a
// time, scriptable.
//
//   tcppr_sim --topology dumbbell --pr-flows 4 --sack-flows 4
//   tcppr_sim --topology multipath --variant inc-by-n --epsilon 1
//   tcppr_sim --topology parking-lot --duration 100 --trace run.tr
//   tcppr_sim --validate --topology dumbbell         # run under the checker
//   tcppr_sim --fuzz 100 --jobs 4                    # fuzz seeds 1..100
//   tcppr_sim --fuzz-seed 42                         # replay one fuzz case
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "harness/experiment.hpp"
#include "harness/parallel_run.hpp"
#include "obs/registry.hpp"
#include "obs/series.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "validate/fuzzer.hpp"
#include "validate/invariants.hpp"
#include "workload/workload.hpp"

namespace {

using namespace tcppr;
using harness::TcpVariant;

struct Args {
  std::string topology = "dumbbell";
  TcpVariant variant = TcpVariant::kTcpPr;  // multipath sender
  double epsilon = 0;
  int pr_flows = 2;
  int sack_flows = 2;
  int flows = 256;           // many-flows / fan-dumbbell topologies
  int fan_width = 8;         // fan-dumbbell relays per side
  double pr_fraction = 0.5;  // many-flows variant mix
  double duration_s = 60;
  double measured_s = 30;
  double bottleneck_mbps = 15;
  double link_delay_ms = -1;  // topology default
  double alpha = 0.995;
  double beta = 3.0;
  std::uint64_t seed = 1;
  std::string trace_path;
  std::string ts_out;
  double ts_interval_s = 0.1;
  bool validate = false;
  bool telemetry = false;  // per-link reordering taps + summary table
  std::string workload;       // "", poisson, web, onoff, million
  double arrival_rate = 100;  // dynamic-flow arrivals per second
  int max_concurrent = 0;     // workload cap override (0 = kind default)
  int id_slots = 0;           // workload id-space override (0 = default)
  // Exit nonzero unless the workload's peak concurrency reaches this.
  std::size_t expect_concurrent = 0;
  bool no_batch = false;  // run the unbatched one-event-per-op engine
  int par = 0;  // 0 = sequential, >= 1 = parallel harness with N LPs
  int fuzz_count = 0;
  std::optional<std::uint64_t> fuzz_seed;
  int jobs = 1;
  std::string fuzz_artifacts;
};

constexpr const char* kTopologies[] = {
    "dumbbell",   "parking-lot",      "multipath",
    "many-flows", "many-flows-graph", "fan-dumbbell",
};

// Ceiling on every time flag. The clock is int64 nanoseconds (~292
// years); at 1e6 s the end of the run, a path's summed link delays and
// every timer derived from them stay far inside that range.
constexpr double kMaxSeconds = 1e6;

// Last instant a --par run may reach: parallel mode stamps every event
// with its schedule instant plus one in kStampTimeBits bits of
// nanoseconds (sim/scheduler.hpp), about 1099.5 s.
constexpr std::int64_t kMaxParNanos =
    (std::int64_t{1} << sim::Scheduler::kStampTimeBits) - 2;

void usage() {
  std::printf(
      "tcppr_sim — run one simulation scenario\n\n"
      "  --topology dumbbell|parking-lot|multipath|many-flows|\n"
      "             many-flows-graph|fan-dumbbell     (default dumbbell)\n"
      "  --variant <name>      sender for multipath runs (default tcp-pr)\n"
      "                        names: tcp-pr sack reno newreno tahoe td-fr\n"
      "                        dsack-nm inc-by-1 inc-by-n ewma eifel tcp-door\n"
      "  --epsilon <e>         multipath spread parameter (default 0)\n"
      "  --pr-flows <n>        dumbbell/parking-lot TCP-PR flows (default 2)\n"
      "  --sack-flows <n>      dumbbell/parking-lot TCP-SACK flows (default 2)\n"
      "  --flows <n>           many-flows flow count 1..4096, or the\n"
      "                        fan-dumbbell concurrency target 1..2^20\n"
      "                        (default 256)\n"
      "  --fan-width <n>       fan-dumbbell relay nodes per side (default 8)\n"
      "  --pr-fraction <f>     many-flows TCP-PR share (default 0.5)\n"
      "  --duration <s>        total simulated seconds (default 60)\n"
      "  --measured <s>        trailing measurement window (default 30)\n"
      "  --bottleneck <mbps>   dumbbell bottleneck (default 15)\n"
      "  --delay <ms>          link delay override\n"
      "                        (time flags are capped at 1e6 simulated\n"
      "                        seconds: --delay at 1e9 ms)\n"
      "  --alpha <a> --beta <b>  TCP-PR parameters (default 0.995 / 3)\n"
      "  --seed <n>            RNG seed (default 1)\n"
      "  --trace <file>        write an ns-2-style packet trace\n"
      "  --ts-out <file>       write flow/queue time series (.ndjson for\n"
      "                        NDJSON, anything else for CSV)\n"
      "  --ts-interval <s>     queue sampling interval (default 0.1)\n"
      "  --validate            run under the invariant checker; nonzero\n"
      "                        exit and a report on any violation\n"
      "  --telemetry           attach a constant-memory reordering tap to\n"
      "                        every link and print the summary table;\n"
      "                        with --validate the taps carry an exact\n"
      "                        baseline checked against the sketches\n"
      "  --workload poisson|web|onoff|million  overlay dynamic flow churn\n"
      "                        between the scenario's src/dst hosts: flows\n"
      "                        arrive, transfer and depart (src/workload\n"
      "                        engine). `million` is the tuned steady-state\n"
      "                        preset whose on/off population pins\n"
      "                        concurrency at --flows (pair with\n"
      "                        --topology fan-dumbbell)\n"
      "  --arrival-rate <r>    workload mean arrivals per second, >= 1e-6\n"
      "                        (default 100; on/off kind ignores it)\n"
      "  --max-concurrent <n>  workload concurrency cap override\n"
      "  --id-slots <n>        workload flow-id slot table size override\n"
      "  --expect-concurrent <n>  exit nonzero unless the workload's peak\n"
      "                        concurrency reached n (scale gating;\n"
      "                        needs --workload)\n"
      "  --no-batch            disable the batched hot path (one scheduler\n"
      "                        event per packet op; byte-identical results,\n"
      "                        the perf-comparison baseline). Also applies\n"
      "                        to --fuzz-seed replays\n"
      "  --par <n>             run on n parallel scheduler shards (LPs);\n"
      "                        output is identical for every n, and matches\n"
      "                        the default run except for the order of\n"
      "                        same-instant ties on tie-heavy plants\n"
      "                        (DESIGN.md 4.5). --duration is capped at\n"
      "                        %.1f s. Also applies to --fuzz and\n"
      "                        --fuzz-seed runs\n"
      "  --fuzz <n>            fuzz campaign over seeds [--seed, --seed+n)\n"
      "  --fuzz-seed <n>       replay one fuzz case under the checker\n"
      "  --fuzz-artifacts <dir>  write per-seed reproducer files for\n"
      "                        failing fuzz seeds into <dir>\n"
      "  --jobs <j>            fuzz campaign worker threads (default 1)\n",
      static_cast<double>(kMaxParNanos) * 1e-9);
}

// A malformed value is a usage error: message on stderr, exit 2. Never an
// abort, never a silent zero.
[[noreturn]] void usage_error(const std::string& flag, const char* value,
                              const char* expected) {
  if (value == nullptr) {
    std::fprintf(stderr, "tcppr_sim: %s needs a value: %s (try --help)\n",
                 flag.c_str(), expected);
  } else {
    std::fprintf(stderr, "tcppr_sim: bad value '%s' for %s: expected %s "
                 "(try --help)\n", value, flag.c_str(), expected);
  }
  std::exit(2);
}

// The one checked number parse behind every numeric flag: the whole token
// must be a finite T that `ok` accepts.
template <typename T, typename Ok>
T parse_number(const std::string& flag, const char* value, Ok ok,
               const char* expected) {
  if (value == nullptr) usage_error(flag, value, expected);
  char* end = nullptr;
  errno = 0;
  T v{};
  bool in_range = true;
  if constexpr (std::is_floating_point_v<T>) {
    v = std::strtod(value, &end);
    in_range = std::isfinite(v);
  } else if constexpr (std::is_signed_v<T>) {
    const long long x = std::strtoll(value, &end, 10);
    in_range = x >= std::numeric_limits<T>::min() &&
               x <= std::numeric_limits<T>::max();
    v = static_cast<T>(x);
  } else {
    // strtoull wraps a minus sign instead of rejecting it.
    in_range = std::strchr(value, '-') == nullptr;
    v = static_cast<T>(std::strtoull(value, &end, 10));
  }
  if (end == value || *end != '\0' || errno == ERANGE || !in_range ||
      !ok(v)) {
    usage_error(flag, value, expected);
  }
  return v;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto text = [&] {
      const char* v = next();
      if (v == nullptr) usage_error(flag, v, "a name or path");
      return std::string(v);
    };
    const auto real = [&](auto ok, const char* expected) {
      return parse_number<double>(flag, next(), ok, expected);
    };
    const auto count = [&](int min) {
      return parse_number<int>(
          flag, next(), [min](int v) { return v >= min; },
          min == 0 ? "an integer >= 0" : "an integer >= 1");
    };
    const auto u64 = [&] {
      return parse_number<std::uint64_t>(
          flag, next(), [](std::uint64_t) { return true; },
          "a non-negative integer");
    };
    const auto positive = [](double v) { return v > 0; };
    const auto non_negative = [](double v) { return v >= 0; };
    const auto time_span = [](double v) { return v > 0 && v <= kMaxSeconds; };
    if (flag == "--help" || flag == "-h") {
      usage();
      std::exit(0);
    } else if (flag == "--topology") {
      args.topology = text();
      if (std::find(std::begin(kTopologies), std::end(kTopologies),
                    args.topology) == std::end(kTopologies)) {
        usage_error(flag, args.topology.c_str(), "a topology name");
      }
    } else if (flag == "--variant") {
      const std::string name = text();
      const auto variant = harness::parse_variant(name);
      if (!variant) usage_error(flag, name.c_str(), "a sender name");
      args.variant = *variant;
    } else if (flag == "--flows") {
      args.flows = count(1);
    } else if (flag == "--fan-width") {
      args.fan_width = count(1);
    } else if (flag == "--pr-fraction") {
      args.pr_fraction = real([](double v) { return v >= 0 && v <= 1; },
                              "a number in [0, 1]");
    } else if (flag == "--epsilon") {
      args.epsilon = real(non_negative, "a number >= 0");
    } else if (flag == "--pr-flows") {
      args.pr_flows = count(0);
    } else if (flag == "--sack-flows") {
      args.sack_flows = count(0);
    } else if (flag == "--duration") {
      args.duration_s = real(time_span, "seconds in (0, 1e6]");
    } else if (flag == "--measured") {
      args.measured_s = real(non_negative, "seconds >= 0");
    } else if (flag == "--bottleneck") {
      args.bottleneck_mbps = real(positive, "Mbps > 0");
    } else if (flag == "--delay") {
      args.link_delay_ms =
          real([](double v) { return v > 0 && v <= kMaxSeconds * 1e3; },
               "milliseconds in (0, 1e9]");
    } else if (flag == "--alpha") {
      args.alpha = real([](double v) { return v > 0 && v < 1; },
                        "a number in (0, 1)");
    } else if (flag == "--beta") {
      args.beta = real([](double v) { return v >= 1; }, "a number >= 1");
    } else if (flag == "--seed") {
      args.seed = u64();
    } else if (flag == "--trace") {
      args.trace_path = text();
    } else if (flag == "--ts-out") {
      args.ts_out = text();
    } else if (flag == "--ts-interval") {
      args.ts_interval_s = real(time_span, "seconds in (0, 1e6]");
    } else if (flag == "--validate") {
      args.validate = true;
    } else if (flag == "--telemetry") {
      args.telemetry = true;
    } else if (flag == "--workload") {
      args.workload = text();
      workload::WorkloadKind kind{};
      if (args.workload != "million" &&
          !workload::parse_workload_kind(args.workload, &kind)) {
        usage_error(flag, args.workload.c_str(), "poisson|web|onoff|million");
      }
    } else if (flag == "--arrival-rate") {
      // Exponential gaps reach ~37 / rate seconds; the floor keeps them on
      // the clock's range like the time flags.
      args.arrival_rate = real([](double v) { return v >= 1 / kMaxSeconds; },
                               "arrivals per second >= 1e-6");
    } else if (flag == "--max-concurrent") {
      args.max_concurrent = count(1);
    } else if (flag == "--id-slots") {
      args.id_slots = count(1);
    } else if (flag == "--expect-concurrent") {
      args.expect_concurrent = static_cast<std::size_t>(count(1));
    } else if (flag == "--no-batch") {
      args.no_batch = true;
    } else if (flag == "--par") {
      args.par = count(1);
    } else if (flag == "--fuzz") {
      args.fuzz_count = count(1);
    } else if (flag == "--fuzz-seed") {
      args.fuzz_seed = u64();
    } else if (flag == "--fuzz-artifacts") {
      args.fuzz_artifacts = text();
    } else if (flag == "--jobs") {
      args.jobs = count(1);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", flag.c_str());
      return false;
    }
  }
  // The --flows ceiling depends on --topology, which may come after it.
  const bool many_flows = args.topology.starts_with("many-flows");
  if (many_flows || args.topology == "fan-dumbbell") {
    const int max_flows = many_flows ? harness::ManyFlowsConfig::kMaxFlows
                                     : harness::FanDumbbellConfig::kMaxFlows;
    if (args.flows > max_flows) {
      const std::string expected = "an integer in 1.." +
                                   std::to_string(max_flows) +
                                   " for --topology " + args.topology;
      usage_error("--flows", std::to_string(args.flows).c_str(),
                  expected.c_str());
    }
  }
  if (args.expect_concurrent > 0 && args.workload.empty()) {
    std::fprintf(stderr, "tcppr_sim: --expect-concurrent needs a --workload "
                 "overlay (try --help)\n");
    std::exit(2);
  }
  if (args.par > 0 &&
      sim::TimePoint::from_seconds(args.duration_s).as_nanos() >
          kMaxParNanos) {
    char value[32];
    char expected[64];
    std::snprintf(value, sizeof value, "%g", args.duration_s);
    std::snprintf(expected, sizeof expected, "seconds in (0, %.1f] with --par",
                  static_cast<double>(kMaxParNanos) * 1e-9);
    usage_error("--duration", value, expected);
  }
  args.measured_s = std::min(args.measured_s, args.duration_s);
  return true;
}

std::unique_ptr<harness::Scenario> build(const Args& args) {
  core::TcpPrConfig pr;
  pr.alpha = args.alpha;
  pr.beta = args.beta;
  const bool delay_override = args.link_delay_ms > 0;
  const sim::Duration delay = sim::Duration::millis(args.link_delay_ms);
  // The settings every topology shares, then its builder; `link_delay` is
  // the field --delay overrides.
  const auto finish = [&](auto& config, sim::Duration& link_delay,
                          auto make) {
    config.pr = pr;
    config.seed = args.seed;
    if (delay_override) link_delay = delay;
    return make(config);
  };
  if (args.topology == "many-flows" || args.topology == "many-flows-graph") {
    harness::ManyFlowsConfig config;
    config.topology = args.topology == "many-flows-graph"
                          ? harness::ManyFlowsConfig::Topology::kRandomGraph
                          : harness::ManyFlowsConfig::Topology::kDumbbell;
    config.flows = args.flows;
    config.pr_fraction = args.pr_fraction;
    if (delay_override) config.graph_delay = delay;
    return finish(config, config.bottleneck_delay, harness::make_many_flows);
  }
  if (args.topology == "fan-dumbbell") {
    harness::FanDumbbellConfig config = harness::million_fan_config(args.flows);
    config.fan_width = args.fan_width;
    return finish(config, config.bottleneck_delay, harness::make_fan_dumbbell);
  }
  if (args.topology == "dumbbell") {
    harness::DumbbellConfig config;
    config.pr_flows = args.pr_flows;
    config.sack_flows = args.sack_flows;
    config.bottleneck_bw_bps = args.bottleneck_mbps * 1e6;
    return finish(config, config.bottleneck_delay, harness::make_dumbbell);
  }
  if (args.topology == "parking-lot") {
    harness::ParkingLotConfig config;
    config.pr_flows = args.pr_flows;
    config.sack_flows = args.sack_flows;
    return finish(config, config.chain_delay, harness::make_parking_lot);
  }
  // "multipath": parse() admits no other name.
  harness::MultipathConfig config;
  config.variant = args.variant;
  config.epsilon = args.epsilon;
  return finish(config, config.link_delay, harness::make_multipath);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 1;

  if (args.fuzz_seed) {
    auto c = validate::sample_fuzz_case(*args.fuzz_seed);
    c.par_lps = args.par;
    c.batching = !args.no_batch;
    std::printf("fuzz seed %llu: %s\n",
                static_cast<unsigned long long>(*args.fuzz_seed),
                validate::describe(c).c_str());
    const auto r = validate::run_fuzz_case(c);
    std::printf("delivered=%llu hash=%016llx violations=%llu\n",
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.delivery_hash),
                static_cast<unsigned long long>(r.violations));
    if (!r.ok) {
      std::printf("first violation: %s\n", r.first_violation.c_str());
      const auto min = validate::minimize_fuzz_case(c);
      std::printf("minimized: %s\n", validate::describe(min).c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (args.fuzz_count > 0) {
    const int failures = validate::run_fuzz_campaign(
        args.seed, args.fuzz_count, args.jobs, /*quiet=*/false,
        args.fuzz_artifacts, args.par, !args.no_batch);
    std::printf("fuzz: %d/%d seeds clean\n", args.fuzz_count - failures,
                args.fuzz_count);
    return failures == 0 ? 0 : 1;
  }

  auto scenario = build(args);

  std::unique_ptr<trace::FileTrace> trace_file;
  if (!args.trace_path.empty()) {
    trace_file = std::make_unique<trace::FileTrace>(args.trace_path);
    if (!trace_file->ok()) {
      std::fprintf(stderr, "cannot open %s\n", args.trace_path.c_str());
      return 1;
    }
    scenario->network.add_trace_sink(trace_file.get());
  }

  obs::MetricRegistry registry;
  std::unique_ptr<obs::SeriesSink> series_sink;
  if (!args.ts_out.empty()) {
    if (args.ts_out.ends_with(".ndjson")) {
      series_sink = std::make_unique<obs::NdjsonSink>(args.ts_out);
    } else {
      series_sink = std::make_unique<obs::CsvSeriesSink>(args.ts_out);
    }
    if (!series_sink->ok()) {
      std::fprintf(stderr, "cannot open %s\n", args.ts_out.c_str());
      return 1;
    }
    registry.add_sink(series_sink.get());
    // Per-flow probes schedule on the build scheduler and stay
    // sequential-only; under --par the time-series output instead carries
    // the per-LP engine gauges published with the barrier report.
    if (args.par == 0) {
      scenario->attach_observability(
          registry, sim::Duration::seconds(args.ts_interval_s));
    }
  }

  harness::RunConfig rc;
  rc.window.total = sim::Duration::seconds(args.duration_s);
  rc.window.measured = sim::Duration::seconds(args.measured_s);
  rc.telemetry = args.telemetry;
  rc.validate = args.validate;
  rc.par_lps = args.par;
  rc.batching = !args.no_batch;
  if (!args.workload.empty()) {
    workload::WorkloadConfig wc;
    if (args.workload == "million") {
      // Steady-state concurrency pinned at --flows; sized for the
      // fan-dumbbell plant built above.
      wc = workload::million_workload_config(args.flows);
    } else {
      workload::parse_workload_kind(args.workload, &wc.kind);  // checked
      wc.arrival_rate = args.arrival_rate;
    }
    if (args.max_concurrent > 0) wc.max_concurrent = args.max_concurrent;
    if (args.id_slots > 0) wc.id_slots = args.id_slots;
    wc.seed = args.seed ^ 0xC4u;
    rc.workload = wc;
  }
  if (series_sink) rc.registry = &registry;
  harness::Run run(*scenario, std::move(rc));
  const auto result = run.run();
  const harness::ParallelSim* psim = run.psim();
  const workload::WorkloadEngine* engine = run.engine();
  const telemetry::Telemetry* telemetry = run.telemetry();
  const validate::InvariantChecker* checker = run.checker();

  std::printf("topology=%s duration=%.0fs measured=%.0fs seed=%llu\n",
              args.topology.c_str(), args.duration_s, args.measured_s,
              static_cast<unsigned long long>(args.seed));
  if (psim) {
    std::printf("parallel: %d LPs (%d requested), %llu windows, "
                "%llu cross-LP packets\n",
                psim->lp_count(), args.par,
                static_cast<unsigned long long>(psim->windows()),
                static_cast<unsigned long long>(psim->exchanged()));
    // Per-LP barrier report: window utilization against the busiest LP
    // and cross-LP traffic sourced at each LP.
    const auto reports = psim->lp_reports();
    std::printf("  %-4s %12s %6s %12s\n", "lp", "events", "util",
                "cross-LP");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      std::printf("  %-4zu %12llu %5.1f%% %12llu\n", i,
                  static_cast<unsigned long long>(r.events),
                  100.0 * r.utilization,
                  static_cast<unsigned long long>(r.cross_pushed));
    }
    if (series_sink) {
      psim->publish_metrics(registry,
                            sim::TimePoint::from_seconds(args.duration_s));
    }
  }
  if (result.flows.size() <= 32) {
    std::printf("%-4s %-9s %12s %12s %8s %6s %6s %6s\n", "flow", "variant",
                "thr (kbps)", "goodput", "rtx", "spur", "to", "halv");
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      const auto& f = result.flows[i];
      std::printf("%-4d %-9s %12.0f %12.0f %8llu %6llu %6llu %6llu\n",
                  static_cast<int>(f.flow), to_string(f.variant),
                  f.throughput_bps / 1e3, f.goodput_bps / 1e3,
                  static_cast<unsigned long long>(f.sender.retransmissions),
                  static_cast<unsigned long long>(
                      f.sender.spurious_retransmits_detected),
                  static_cast<unsigned long long>(f.sender.timeouts),
                  static_cast<unsigned long long>(f.sender.cwnd_halvings));
    }
  } else {
    // Per-flow tables are unreadable at many-flows scale; print per-variant
    // aggregates instead.
    std::printf("%-9s %6s %14s %14s %10s %8s\n", "variant", "flows",
                "mean thr", "total thr", "rtx", "to");
    for (const TcpVariant v : harness::all_variants()) {
      double total_bps = 0;
      std::uint64_t rtx = 0, to = 0;
      int n = 0;
      for (const auto& f : result.flows) {
        if (f.variant != v) continue;
        ++n;
        total_bps += f.throughput_bps;
        rtx += f.sender.retransmissions;
        to += f.sender.timeouts;
      }
      if (n == 0) continue;
      std::printf("%-9s %6d %12.0f k %12.0f k %10llu %8llu\n", to_string(v), n,
                  total_bps / n / 1e3, total_bps / 1e3,
                  static_cast<unsigned long long>(rtx),
                  static_cast<unsigned long long>(to));
    }
  }
  std::printf("\nloss rate %.2f%%, %llu events processed\n",
              100.0 * result.loss_rate,
              static_cast<unsigned long long>(result.events));
  // Engine aggregates: events per delivered packet (the batched hot path
  // drives this below 1) and the pump's ops per carrier event.
  const auto snap = scenario->network.conservation();
  const double epp =
      snap.delivered_to_agent > 0
          ? static_cast<double>(result.events) /
                static_cast<double>(snap.delivered_to_agent)
          : 0.0;
  std::printf("engine: %s, %.3f events/packet",
              args.no_batch ? "unbatched" : "batched", epp);
  net::LinkPump::Stats pump_stats{};
  if (psim) {
    pump_stats = psim->pump_stats();
  } else if (scenario->network.pump() != nullptr) {
    pump_stats = scenario->network.pump()->stats();
  }
  if (pump_stats.events > 0) {
    std::printf(", %llu pump ops in %llu carrier events (%.2f ops/event)",
                static_cast<unsigned long long>(pump_stats.ops),
                static_cast<unsigned long long>(pump_stats.events),
                static_cast<double>(pump_stats.ops) /
                    static_cast<double>(pump_stats.events));
  }
  std::printf("\n");
  if (engine) {
    const auto ws = engine->stats();
    std::printf(
        "workload: %s at %g/s — arrivals=%llu completed=%llu rejected=%llu "
        "active=%zu peak=%zu\n",
        args.workload.c_str(), args.arrival_rate,
        static_cast<unsigned long long>(ws.arrivals),
        static_cast<unsigned long long>(ws.completed),
        static_cast<unsigned long long>(ws.rejected), ws.active,
        ws.peak_active);
    std::printf(
        "  receivers: created=%llu closed=%llu reaped=%llu resumed=%llu "
        "stray=%llu live=%zu\n",
        static_cast<unsigned long long>(ws.receivers_created),
        static_cast<unsigned long long>(ws.receivers_closed),
        static_cast<unsigned long long>(ws.receivers_reaped),
        static_cast<unsigned long long>(ws.receivers_resumed),
        static_cast<unsigned long long>(ws.stray_packets),
        engine->live_receivers());
    const auto rs = engine->reorder_stats();
    std::printf(
        "  mean completion %.3fs, slab %zu bytes over %zu slots, "
        "reordered %.2f%% of %llu arrivals\n",
        ws.mean_completion_s(), engine->slab_bytes(), engine->slots_in_use(),
        100.0 * rs.reordered_fraction(),
        static_cast<unsigned long long>(rs.total()));
  }
  if (telemetry) {
    std::printf("\n");
    telemetry->print_summary(stdout);
    if (series_sink) {
      telemetry->publish(registry,
                         sim::TimePoint::from_seconds(args.duration_s));
    }
  }
  if (result.flows.size() > 1) {
    std::printf("mean normalized: tcp-pr %.3f, sack %.3f; CoV %.3f / %.3f\n",
                result.mean_normalized(TcpVariant::kTcpPr),
                result.mean_normalized(TcpVariant::kSack),
                result.cov(TcpVariant::kTcpPr),
                result.cov(TcpVariant::kSack));
  }
  if (trace_file) {
    trace_file->flush();
    std::printf("trace written to %s\n", args.trace_path.c_str());
  }
  if (series_sink) {
    series_sink->flush();
    std::printf("time series written to %s (%llu samples)\n",
                args.ts_out.c_str(),
                static_cast<unsigned long long>(registry.samples_recorded()));
  }
  if (checker) {
    std::printf("validation: %llu sweeps, %llu violations\n",
                static_cast<unsigned long long>(checker->sweeps()),
                static_cast<unsigned long long>(checker->total_violations()));
    if (!checker->ok()) {
      std::fputs(checker->report().c_str(), stderr);
      return 1;
    }
  }
  if (args.expect_concurrent > 0) {  // parse() ensures a workload
    const std::size_t peak = engine->stats().peak_active;
    if (peak < args.expect_concurrent) {
      std::fprintf(stderr,
                   "FAIL: peak concurrency %zu below expected %zu\n", peak,
                   args.expect_concurrent);
      return 1;
    }
    std::printf("peak concurrency %zu >= expected %zu\n", peak,
                args.expect_concurrent);
  }
  return 0;
}
