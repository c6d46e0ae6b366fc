// Mutation self-test for the validation layer: deliberately corrupt the
// simulation through test-only knobs and assert the InvariantChecker
// actually reports a violation. A checker that cannot catch a planted bug
// proves nothing when it reports a clean run.
#include <gtest/gtest.h>

#include <string>

#include "validate/fuzzer.hpp"
#include "validate/invariants.hpp"

namespace tcppr::validate {
namespace {

FuzzCase base_case() {
  FuzzCase c;
  c.seed = 7;
  c.topology = FuzzCase::Topology::kDumbbell;
  c.flows = 1;
  c.variants = {harness::TcpVariant::kSack};
  c.duration_s = 3.0;
  return c;
}

TEST(ValidateSelfTest, BaselineIsClean) {
  const FuzzResult r = run_fuzz_case(base_case());
  EXPECT_TRUE(r.ok) << r.first_violation;
  EXPECT_EQ(r.violations, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(ValidateSelfTest, CorruptedTransitAccountingIsCaught) {
  FuzzCase c = base_case();
  c.corrupt_transit_for_test = true;
  const FuzzResult r = run_fuzz_case(c);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.violations, 0u);
  EXPECT_NE(r.first_violation.find("conservation"), std::string::npos)
      << r.first_violation;
}

TEST(ValidateSelfTest, CorruptedDeliveryHashIsCaught) {
  FuzzCase c = base_case();
  c.corrupt_delivery_for_test = true;
  const FuzzResult r = run_fuzz_case(c);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.violations, 0u);
  EXPECT_NE(r.first_violation.find("checksum"), std::string::npos)
      << r.first_violation;
}

TEST(ValidateSelfTest, CorruptedTelemetrySketchIsCaught) {
  FuzzCase c = base_case();
  c.telemetry = true;
  c.corrupt_telemetry_for_test = true;
  const FuzzResult r = run_fuzz_case(c);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.violations, 0u);
  EXPECT_NE(r.first_violation.find("telemetry"), std::string::npos)
      << r.first_violation;
}

TEST(ValidateSelfTest, ParallelBaselineIsClean) {
  FuzzCase c = base_case();
  c.par_lps = 2;
  const FuzzResult r = run_fuzz_case(c);
  EXPECT_TRUE(r.ok) << r.first_violation;
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.delivery_hash, run_fuzz_case(base_case()).delivery_hash);
}

TEST(ValidateSelfTest, MinimizerDisablesTelemetryFirst) {
  // A failure that has nothing to do with telemetry: the minimizer's first
  // accepted simplification must strip the telemetry dimension.
  FuzzCase c = base_case();
  c.corrupt_transit_for_test = true;
  c.telemetry = true;
  const FuzzCase min = minimize_fuzz_case(c, /*max_runs=*/10);
  EXPECT_FALSE(run_fuzz_case(min).ok);
  EXPECT_FALSE(min.telemetry);
}

TEST(ValidateSelfTest, MinimizerPreservesFailure) {
  FuzzCase c = base_case();
  c.corrupt_transit_for_test = true;
  // Add removable complexity for the minimizer to strip.
  c.flows = 2;
  c.variants = {harness::TcpVariant::kSack, harness::TcpVariant::kReno};
  c.loss_rate = 0.01;
  c.jitter_ms = 5;
  const FuzzCase min = minimize_fuzz_case(c, /*max_runs=*/20);
  EXPECT_FALSE(run_fuzz_case(min).ok);
  EXPECT_EQ(min.flows, 1);
  EXPECT_EQ(min.loss_rate, 0.0);
  EXPECT_EQ(min.jitter_ms, 0.0);
}

TEST(ValidateSelfTest, SampleFuzzCaseIsPure) {
  for (const std::uint64_t seed : {1ull, 17ull, 400ull}) {
    const FuzzCase a = sample_fuzz_case(seed);
    const FuzzCase b = sample_fuzz_case(seed);
    EXPECT_EQ(describe(a), describe(b));
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ValidateSelfTest, ReproducerCarriesParAndNoBatch) {
  // A campaign under --par / --no-batch must print a replay command that
  // runs the same engine, not the sequential batched default.
  FuzzCase c = sample_fuzz_case(42);
  EXPECT_EQ(reproducer(c), "tcppr_sim --fuzz-seed 42");
  c.par_lps = 2;
  c.batching = false;
  EXPECT_EQ(reproducer(c), "tcppr_sim --fuzz-seed 42 --par 2 --no-batch");
}

TEST(ValidateSelfTest, FuzzCampaignSmoke) {
  // A handful of seeds, single-threaded: exercises the campaign driver
  // end to end (the long campaign runs in CI, non-gating).
  EXPECT_EQ(run_fuzz_campaign(/*first_seed=*/1, /*count=*/5, /*jobs=*/1,
                              /*quiet=*/true),
            0);
}

}  // namespace
}  // namespace tcppr::validate
