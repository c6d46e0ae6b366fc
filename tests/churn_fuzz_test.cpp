// Fuzzed churn equivalence: randomized scenarios with the workload
// engine's dynamic flow lifecycle forced ON must stay engine-invariant.
// workload_test.cpp proves the property on the hand-built churn dumbbell;
// these suites extend it to fuzz-sampled topologies, fault processes and
// variant mixes — receiver reaping, slot quarantine and mid-stream resume
// interleaved with loss, jitter, flaps and reconfiguration.
//
// Two suites, mirroring batch_equivalence_test.cpp:
//   - batched vs unbatched over churning fuzz seeds (same backend/LP
//     count on both sides; only `batching` differs), and
//   - par {1,2,4} vs the stamped single-shard baseline (par_lps=1 is the
//     canonical tie order the parallel engine reproduces).
#include <gtest/gtest.h>

#include <cstdint>

#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

// Forces the churn dimension on without disturbing the rest of the
// sampled case: seeds whose draw left churn off get a deterministic
// kind/rate derived from the seed itself.
FuzzCase churning_case(std::uint64_t seed) {
  FuzzCase c = sample_fuzz_case(seed);
  if (c.churn_rate <= 0) {
    c.churn_rate = 200.0 + 50.0 * static_cast<double>(seed % 8);
    c.churn_kind = static_cast<workload::WorkloadKind>(seed % 3);
  }
  c.duration_s = std::min(c.duration_s, 4.0);
  return c;
}

class ChurnFuzzBatchEquivalence : public testing::TestWithParam<int> {};

TEST_P(ChurnFuzzBatchEquivalence, BatchedMatchesUnbatched) {
  constexpr int kSeedsPerShard = 6;
  const std::uint64_t first =
      301 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    FuzzCase c = churning_case(seed);
    c.par_lps = seed % 3 == 0 ? 2 : 0;
    FuzzCase unbatched = c;
    unbatched.batching = false;
    const FuzzResult ref = run_fuzz_case(unbatched);
    c.batching = true;
    const FuzzResult batched = run_fuzz_case(c);
    EXPECT_EQ(batched.delivery_hash, ref.delivery_hash)
        << "seed " << seed << " (" << describe(c) << ")";
    EXPECT_EQ(batched.delivered, ref.delivered) << "seed " << seed;
    EXPECT_EQ(batched.ok, ref.ok) << "seed " << seed;
    EXPECT_TRUE(ref.ok) << "seed " << seed << ": " << ref.first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds301To324, ChurnFuzzBatchEquivalence,
                         testing::Range(0, 4));

class ChurnFuzzParEquivalence : public testing::TestWithParam<int> {};

TEST_P(ChurnFuzzParEquivalence, ParMatchesStampedBaseline) {
  constexpr int kSeedsPerShard = 4;
  const std::uint64_t first =
      401 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    FuzzCase c = churning_case(seed);
    c.par_lps = 1;
    const FuzzResult ref = run_fuzz_case(c);
    EXPECT_TRUE(ref.ok) << "seed " << seed << ": " << ref.first_violation;
    EXPECT_GT(ref.delivered, 0u) << "seed " << seed;
    for (const int lps : {2, 4}) {
      FuzzCase t = c;
      t.par_lps = lps;
      const FuzzResult r = run_fuzz_case(t);
      EXPECT_EQ(r.delivery_hash, ref.delivery_hash)
          << "seed " << seed << " lps=" << lps << " (" << describe(t) << ")";
      EXPECT_EQ(r.delivered, ref.delivered)
          << "seed " << seed << " lps=" << lps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds401To416, ChurnFuzzParEquivalence,
                         testing::Range(0, 4));

}  // namespace
}  // namespace tcppr::validate
