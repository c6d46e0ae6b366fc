// Many-flow scale benchmarks (google-benchmark): how simulation cost grows
// with the live flow count.
//
// Two layers:
//   - BM_ScaleFlowsScheduler: the classic hold-model event-queue benchmark
//     sized like an N-flow run (one pending deadline timer per flow plus a
//     few in-flight packet events). Scheduler-bound by construction, so it
//     isolates the heap's O(log N) per operation against a live population
//     of N.
//   - BM_ScaleFlowsDumbbell: end-to-end many-flow dumbbell simulation
//     (make_many_flows), where TCP processing and packet forwarding dilute
//     the event-queue share.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdint>
#include <functional>

#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "net/link_pump.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "workload/workload.hpp"

namespace {

using namespace tcppr;

// Process peak resident set in bytes (ru_maxrss is kB on Linux). Monotone
// over the process lifetime, so RSS-gated rows must run before any larger
// benchmark in this file (registration order = file order) — and
// bench_engine.py re-measures each row in a fresh subprocess anyway.
std::size_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

// Hold model over a live population of N "flows": each pop reschedules
// itself a pseudo-random interval ahead, holding the population constant —
// the steady state of N flows each keeping a drop-deadline timer armed.
// Intervals span 100 us .. 100 ms, the RTT-to-RTO band the TCP stacks
// actually schedule in.
void BM_ScaleFlowsScheduler(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  constexpr int kOpsPerIteration = 200000;
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::Rng rng(99);
    int fired = 0;
    std::function<void()> hold = [&] {
      if (++fired < kOpsPerIteration) {
        sched.schedule_in(
            sim::Duration::micros(
                100 + static_cast<std::int64_t>(rng.uniform(0.0, 1e5))),
            [&hold] { hold(); });
      }
    };
    for (int i = 0; i < flows; ++i) {
      sched.schedule_in(
          sim::Duration::micros(
              100 + static_cast<std::int64_t>(rng.uniform(0.0, 1e5))),
          [&hold] { hold(); });
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed_count());
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIteration);
}
BENCHMARK(BM_ScaleFlowsScheduler)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// End-to-end: N-flow dumbbell for two simulated seconds. Bottleneck
// bandwidth scales with N (constant per-flow share), so the event rate —
// and the live timer population — grow linearly with the flow count.
// Second argument toggles the batched hot path (0 = per-packet events,
// 1 = link-pump carrier events); the events_per_packet counter reports
// scheduler events per delivered packet, the metric batching collapses.
void BM_ScaleFlowsDumbbell(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const bool batching = state.range(1) != 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    harness::ManyFlowsConfig config;
    config.flows = flows;
    auto scenario = harness::make_many_flows(config);
    if (!batching) scenario->network.disable_batching();
    scenario->sched.run_until(sim::TimePoint::from_seconds(2));
    events = scenario->sched.processed_count();
    delivered = scenario->network.conservation().delivered_to_agent;
    benchmark::DoNotOptimize(events);
  }
  state.counters["events_per_packet"] =
      delivered ? static_cast<double>(events) / static_cast<double>(delivered)
                : 0.0;
}
// Batched and unbatched rows side by side: the gap at the same flow count
// is the batched hot path's end-to-end win, recorded in BENCH_engine.json.
// 4096 flows is the ceiling the builder supports.
BENCHMARK(BM_ScaleFlowsDumbbell)
    ->ArgNames({"flows", "batch"})
    ->ArgsProduct({{16, 256, 1024, 4096}, {1, 0}})
    ->Unit(benchmark::kMillisecond);

// Sequential-vs-parallel rows: the same N-flow dumbbell through the
// parallel harness at 1/2/4/8 LPs. lps:1 is the canonical
// stamped one-shard run — its gap to BM_ScaleFlowsDumbbell is the pure
// stamping overhead; lps >= 2 adds threads. Speedup only materializes with
// as many cores as LPs; the regression gate skips lps > 1 rows on
// single-core runners (tools/bench_check.py).
void BM_ScaleFlowsParallel(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const int lps = static_cast<int>(state.range(1));
  std::uint64_t realized = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    harness::ManyFlowsConfig config;
    config.flows = flows;
    auto scenario = harness::make_many_flows(config);
    harness::ParallelRunConfig pc;
    pc.lps = lps;
    harness::ParallelSim psim(*scenario, pc);
    psim.run_until(sim::TimePoint::from_seconds(2));
    realized = static_cast<std::uint64_t>(psim.lp_count());
    events = psim.events_processed();
    delivered = scenario->network.conservation().delivered_to_agent;
    benchmark::DoNotOptimize(events);
  }
  state.counters["lps"] = static_cast<double>(realized);
  state.counters["events_per_packet"] =
      delivered ? static_cast<double>(events) / static_cast<double>(delivered)
                : 0.0;
}
BENCHMARK(BM_ScaleFlowsParallel)
    ->ArgNames({"flows", "lps"})
    ->ArgsProduct({{256, 1024, 4096}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Engine rows: the low-lookahead clustered mesh (4096 flows over 4
// clusters whose only cuttable edges are 100 us ring links) through the
// conservative parallel harness. On this plant the barrier is the
// bottleneck — the safe window is a fraction of an RTT — so the lps:4 row
// against the lps:1 row is the parallel-efficiency worst case the bench
// gate floors (same-run ratio, no machine calibration).
void BM_ScaleFlowsEngine(benchmark::State& state) {
  const int lps = static_cast<int>(state.range(0));
  std::uint64_t realized = 0;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    harness::ClusteredMeshConfig config;
    config.clusters = 4;
    config.flows = 4096;
    // Short stagger: front-load the flow starts so the steady state
    // dominates the two simulated seconds.
    config.max_start_stagger = sim::Duration::millis(20);
    auto scenario = harness::make_clustered_mesh(config);
    harness::ParallelRunConfig pc;
    pc.lps = lps;
    pc.min_cut_lookahead = config.min_cut_lookahead();
    harness::ParallelSim psim(*scenario, pc);
    psim.run_until(sim::TimePoint::from_seconds(2));
    realized = static_cast<std::uint64_t>(psim.lp_count());
    windows = psim.windows();
    benchmark::DoNotOptimize(windows);
  }
  state.counters["lps"] = static_cast<double>(realized);
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_ScaleFlowsEngine)
    ->ArgNames({"lps"})
    ->Args({1})
    ->Args({4})
    ->Unit(benchmark::kMillisecond);

// Churn sweep: the dynamic flow lifecycle engine (src/workload) on a
// dumbbell whose bandwidth scales with the arrival rate (constant
// per-flow share), two simulated seconds per iteration. Flows arrive,
// transfer 2-4 segments and genuinely depart — the steady-state cost is
// dominated by lifecycle turnover (sender/receiver setup + teardown, slot
// quarantine, idle-lease sweeps), not by any single flow's transfer.
// Counters: wall-clock churn throughput (arrivals and scheduler events
// per second, machine-dependent — gated against the baseline with the
// machine-speed factor) and the steady-state slab footprint per live
// flow-id slot (machine-independent — gated at a hard byte ceiling).
void BM_ScaleFlowsChurn(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::size_t slab = 0;
  std::size_t slots = 0;
  for (auto _ : state) {
    harness::DumbbellConfig cfg;
    cfg.pr_flows = 0;
    cfg.sack_flows = 0;
    cfg.bottleneck_bw_bps = 40e6 * rate / 1000.0;
    cfg.access_bw_bps = 4 * cfg.bottleneck_bw_bps;
    cfg.bottleneck_queue = 500;
    cfg.access_queue = 1000;
    auto scenario = harness::make_dumbbell(cfg);
    workload::WorkloadConfig wc;
    wc.kind = workload::WorkloadKind::kPoisson;
    wc.arrival_rate = rate;
    wc.min_segments = 2;
    wc.max_segments = 4;  // mice: offered load stays under the bottleneck
    wc.quarantine = sim::Duration::millis(300);
    wc.reap_idle = sim::Duration::millis(150);
    wc.reap_sweep = sim::Duration::millis(50);
    wc.max_concurrent = 8192;
    wc.id_slots = 1 << 15;
    workload::WorkloadEngine engine(*scenario, wc);
    engine.start();
    scenario->sched.run_until(sim::TimePoint::from_seconds(2));
    const workload::WorkloadStats ws = engine.stats();
    arrivals = ws.arrivals;
    completed = ws.completed;
    events = scenario->sched.processed_count();
    slab = engine.slab_bytes();
    slots = engine.slots_in_use();
    benchmark::DoNotOptimize(arrivals);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arrivals));
  state.counters["arrivals_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(arrivals),
      benchmark::Counter::kIsRate);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
  state.counters["completed_frac"] =
      arrivals > 0
          ? static_cast<double>(completed) / static_cast<double>(arrivals)
          : 0.0;
  state.counters["bytes_per_slot"] =
      slots > 0 ? static_cast<double>(slab) / static_cast<double>(slots) : 0.0;
  state.counters["peak_rss_bytes"] = static_cast<double>(peak_rss_bytes());
}
BENCHMARK(BM_ScaleFlowsChurn)
    ->ArgNames({"rate"})
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The top-end scale row (ROADMAP / ISSUE 9): 2^20 concurrent flows on the
// fan-in/fan-out dumbbell with the tuned million-flow on/off workload —
// a ~2 s ramp to saturation plus a 1-simulated-second steady-state
// window, one iteration (the run is minutes, not microseconds). Gated on
// its machine-independent memory columns (peak_concurrent, bytes_per_slot,
// peak_rss_bytes — tools/bench_check.py); events_per_sec and
// completed_frac ride along as recorded context. Excluded from the
// PR-gating bench job (bench_engine.py --skip-1m); nightly runs it.
void BM_ScaleFlows1M(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  workload::WorkloadStats ws;
  std::uint64_t events = 0;
  std::size_t slab = 0;
  std::size_t slots = 0;
  for (auto _ : state) {
    harness::FanDumbbellConfig fc = harness::million_fan_config(flows);
    auto scenario = harness::make_fan_dumbbell(fc);
    workload::WorkloadConfig wc = workload::million_workload_config(flows);
    workload::WorkloadEngine engine(*scenario, wc);
    engine.start();
    scenario->sched.run_until(sim::TimePoint::from_seconds(3));
    ws = engine.stats();
    events = scenario->sched.processed_count();
    slab = engine.slab_bytes();
    slots = engine.slots_in_use();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(events),
      benchmark::Counter::kIsRate);
  state.counters["peak_concurrent"] = static_cast<double>(ws.peak_active);
  state.counters["completed_frac"] =
      ws.arrivals > 0
          ? static_cast<double>(ws.completed) / static_cast<double>(ws.arrivals)
          : 0.0;
  state.counters["bytes_per_slot"] =
      slots > 0 ? static_cast<double>(slab) / static_cast<double>(slots) : 0.0;
  state.counters["slab_bytes"] = static_cast<double>(slab);
  state.counters["peak_rss_bytes"] = static_cast<double>(peak_rss_bytes());
}
BENCHMARK(BM_ScaleFlows1M)
    ->ArgNames({"flows"})
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace

BENCHMARK_MAIN();
