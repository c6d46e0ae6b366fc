// Differential cross-validation for the telemetry sketches, and the
// zero-interference guarantee that makes them safe to deploy:
//
//   1. Sketch vs exact: run_fuzz_case with c.telemetry=true attaches taps
//      with the exact per-flow baseline and the InvariantChecker asserts
//      the declared error bounds every sweep. 200+ cells: 12 variants x
//      3 paper topologies x {1,2,4} LPs, plus 200 fuzz seeds alternating
//      batched and unbatched.
//   2. Hash identity: for the same case, the DeliveryHasher digest with
//      telemetry on must be byte-identical to the digest with telemetry
//      off. Observation must not perturb the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/scenarios.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

FuzzResult run_with_telemetry(FuzzCase c, bool telemetry) {
  c.telemetry = telemetry;
  return run_fuzz_case(c);
}

// 12 variants x 3 paper topologies x {1, 2, 4} LPs, telemetry + exact
// baseline on, checker sweeps asserting the bounds throughout. Named
// *Parallel* so the TSan preset's ctest filter picks the matrix up.
class VariantTelemetryParallelMatrix
    : public testing::TestWithParam<harness::TcpVariant> {};

TEST_P(VariantTelemetryParallelMatrix, BoundsHoldAcrossTopologiesAndLps) {
  const FuzzCase::Topology topologies[] = {
      FuzzCase::Topology::kDumbbell,
      FuzzCase::Topology::kParkingLot,
      FuzzCase::Topology::kMultipath,
  };
  for (const auto topology : topologies) {
    FuzzCase c;
    c.topology = topology;
    c.flows = 1;
    c.variants = {GetParam()};
    c.duration_s = 2.0;
    c.telemetry = true;
    for (const int lps : {0, 1, 2, 4}) {  // 0 = legacy sequential engine
      c.par_lps = lps;
      const FuzzResult r = run_fuzz_case(c);
      EXPECT_TRUE(r.ok) << to_string(topology) << " at " << lps
                        << " LPs: " << r.first_violation;
      EXPECT_GT(r.delivered, 0u) << to_string(topology);
    }
  }
}

std::string variant_test_name(
    const testing::TestParamInfo<harness::TcpVariant>& info) {
  std::string name = harness::to_string(info.param);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTelemetryParallelMatrix,
                         testing::ValuesIn(harness::all_variants()),
                         variant_test_name);

// 200 fuzz seeds with telemetry + exact baseline forced on, alternating
// batched and unbatched in pairs of seeds so both engine modes feed the
// taps.
// Sharded into 8 parameterized cases so ctest -j spreads the work. The
// checker cross-validates sketch vs exact at every sweep; r.ok is the
// verdict.
class FuzzSeedTelemetryDifferential : public testing::TestWithParam<int> {};

TEST_P(FuzzSeedTelemetryDifferential, SketchMatchesExactWithinBounds) {
  constexpr int kSeedsPerShard = 25;
  const std::uint64_t first =
      1 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    FuzzCase c = sample_fuzz_case(seed);
    c.telemetry = true;
    c.batching = seed % 4 < 2;
    const FuzzResult r = run_fuzz_case(c);
    EXPECT_TRUE(r.ok) << "seed " << seed << " (" << describe(c)
                      << "): " << r.first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds1To200, FuzzSeedTelemetryDifferential,
                         testing::Range(0, 8));

// Telemetry on vs off over the same case must produce byte-identical
// delivery streams: taps observe, they never perturb. Covers the clean
// paper topologies, faulty fuzz seeds, batched + unbatched, and the
// parallel engine's cross-shard injection path.
TEST(TelemetryHashIdentity, PaperTopologiesAllEngineModes) {
  const FuzzCase::Topology topologies[] = {
      FuzzCase::Topology::kDumbbell,
      FuzzCase::Topology::kParkingLot,
      FuzzCase::Topology::kMultipath,
  };
  for (const auto topology : topologies) {
    for (const bool batching : {true, false}) {
      for (const int lps : {0, 2, 4}) {
        FuzzCase c;
        c.topology = topology;
        c.flows = 2;
        c.variants = {harness::TcpVariant::kSack, harness::TcpVariant::kTcpPr};
        c.duration_s = 2.0;
        c.batching = batching;
        c.par_lps = lps;
        const FuzzResult off = run_with_telemetry(c, false);
        const FuzzResult on = run_with_telemetry(c, true);
        EXPECT_EQ(on.delivery_hash, off.delivery_hash)
            << to_string(topology) << " batching=" << batching << " lps="
            << lps << ": telemetry perturbed the delivery stream";
        EXPECT_EQ(on.delivered, off.delivered) << to_string(topology);
        EXPECT_TRUE(on.ok) << on.first_violation;
      }
    }
  }
}

TEST(TelemetryHashIdentity, FuzzSeedsWithFaults) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzCase c = sample_fuzz_case(seed);
    const FuzzResult off = run_with_telemetry(c, false);
    const FuzzResult on = run_with_telemetry(c, true);
    EXPECT_EQ(on.delivery_hash, off.delivery_hash)
        << "seed " << seed << " (" << describe(c) << ")";
    EXPECT_EQ(on.delivered, off.delivered) << "seed " << seed;
    EXPECT_EQ(on.ok, off.ok) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tcppr::validate
