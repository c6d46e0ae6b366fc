// Batch equivalence: the batched hot path (link-pump carrier events,
// batched queue admission, send-bursts) must be an engine-level
// optimization only — the delivery stream it produces has to be
// byte-identical to the unbatched engine's. The DeliveryHasher digest
// over (time, flow, endpoints, seq, size, is_ack) is the witness.
//
// Two matrices, mirroring golden_digest_test.cpp:
//   - 12 variants x 3 paper topologies: unbatched reference vs batched
//     sequential and batched parallel at 1/2/4/8 LPs, and
//   - 200 fuzz seeds (faulty links, random topologies) batched vs
//     unbatched, with parallel coverage sprinkled in, sharded into 8
//     parameterized cases so ctest -j spreads the work.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/scenarios.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

FuzzResult run_batched(FuzzCase c, int par_lps = 0) {
  c.batching = true;
  c.par_lps = par_lps;
  return run_fuzz_case(c);
}

FuzzResult run_unbatched(FuzzCase c) {
  c.batching = false;
  c.par_lps = 0;
  return run_fuzz_case(c);
}

class VariantBatchEquivalence
    : public testing::TestWithParam<harness::TcpVariant> {};

TEST_P(VariantBatchEquivalence, AllTopologiesHashIdentically) {
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
    const FuzzResult reference = run_unbatched(c);
    EXPECT_TRUE(reference.ok)
        << to_string(topology) << ": " << reference.first_violation;
    EXPECT_GT(reference.delivered, 0u) << to_string(topology);
    const FuzzResult batched = run_batched(c);
    EXPECT_EQ(batched.delivery_hash, reference.delivery_hash)
        << to_string(topology) << " batched diverged from the unbatched engine";
    EXPECT_EQ(batched.delivered, reference.delivered) << to_string(topology);
    EXPECT_TRUE(batched.ok)
        << to_string(topology) << " batched: " << batched.first_violation;
    // Parallel runs compare against the unbatched *stamped* canonical
    // baseline (par_lps=1), not the legacy sequential run: stamped tie
    // order is keyed by owner node, which legitimately differs from
    // insertion order on multipath (pre-existing, batching-independent —
    // the same baseline parallel_engine_test uses).
    FuzzCase pc = c;
    pc.batching = false;
    pc.par_lps = 1;
    const FuzzResult par_reference = run_fuzz_case(pc);
    EXPECT_TRUE(par_reference.ok)
        << to_string(topology) << ": " << par_reference.first_violation;
    for (const int lps : {1, 2, 4, 8}) {
      const FuzzResult batched = run_batched(c, lps);
      EXPECT_EQ(batched.delivery_hash, par_reference.delivery_hash)
          << to_string(topology) << " batched at " << lps
          << " LPs diverged from the unbatched engine";
      EXPECT_EQ(batched.delivered, par_reference.delivered)
          << to_string(topology) << " batched at " << lps << " LPs";
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

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantBatchEquivalence,
                         testing::ValuesIn(harness::all_variants()),
                         variant_test_name);

// 200 fuzz seeds, batched vs unbatched, in 8 shards of 25 seeds each.
// The fuzz sampler exercises faulty links (loss, jitter, flaps,
// reconfiguration) and all four topologies — interleavings the clean
// matrix above cannot reach. Both sides of each comparison share the LP
// count (every fourth seed runs on 4 LPs); only `batching` differs.
class FuzzSeedBatchEquivalence : public testing::TestWithParam<int> {};

TEST_P(FuzzSeedBatchEquivalence, BatchedMatchesUnbatched) {
  constexpr int kSeedsPerShard = 25;
  const std::uint64_t first =
      1 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    FuzzCase c = sample_fuzz_case(seed);
    c.par_lps = seed % 4 == 0 ? 4 : 0;
    FuzzCase unbatched = c;
    unbatched.batching = false;
    const FuzzResult ref = run_fuzz_case(unbatched);
    c.batching = true;
    const FuzzResult batched = run_fuzz_case(c);
    EXPECT_EQ(batched.delivery_hash, ref.delivery_hash)
        << "seed " << seed << " (" << describe(c) << ")";
    EXPECT_EQ(batched.delivered, ref.delivered) << "seed " << seed;
    EXPECT_EQ(batched.ok, ref.ok) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds1To200, FuzzSeedBatchEquivalence,
                         testing::Range(0, 8));

}  // namespace
}  // namespace tcppr::validate
