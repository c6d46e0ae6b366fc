// Golden delivery digests: the DeliveryHasher digest over (time, flow,
// endpoints, seq, size, is_ack) and the delivered-packet count of fixed
// runs. The values were recorded while three scheduler backends existed
// and all produced them, so they pin the (time, seq) order independently
// of the heap. Equal digests mean every packet is still delivered at the
// same time and in the same order; a drift names its row.
//
// Three tables:
//   - 12 variants x 3 paper topologies (clean links), one case per row,
//   - 200 fuzz seeds (faulty links, random topologies), sharded into 8
//     parameterized cases so ctest -j spreads the work, and
//   - the flow-state sample series (src/obs) of four variants on the
//     reordering mesh, which sees the endpoints' scoreboard counters that
//     a delivery digest cannot (`outstanding` is the sender's in-flight
//     count or pipe, `ooo_buffered` the receiver's out-of-order buffer).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>

#include "harness/scenarios.hpp"
#include "obs/registry.hpp"
#include "obs/series.hpp"
#include "util/hash.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

struct VariantGolden {
  harness::TcpVariant variant;
  FuzzCase::Topology topology;
  std::uint64_t delivered;
  std::uint64_t hash;
};

using V = harness::TcpVariant;
using T = FuzzCase::Topology;
constexpr VariantGolden kVariantGoldens[] = {
    {V::kTcpPr, T::kDumbbell, 3927, 0xad092c875b7cabc8},
    {V::kTcpPr, T::kParkingLot, 3138, 0x83d07de1417344ef},
    {V::kTcpPr, T::kMultipath, 6645, 0xcc1b0883f68f7313},
    {V::kSack, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kSack, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kSack, T::kMultipath, 226, 0xeeb4f9c022373c43},
    {V::kReno, T::kDumbbell, 1158, 0x6fdd7f375c4684fb},
    {V::kReno, T::kParkingLot, 1452, 0xe7a0a4988499d405},
    {V::kReno, T::kMultipath, 211, 0xc7d43a3707fb4a53},
    {V::kNewReno, T::kDumbbell, 1747, 0xcf1cb60868aea94c},
    {V::kNewReno, T::kParkingLot, 1991, 0xfaf1fabffad68cce},
    {V::kNewReno, T::kMultipath, 299, 0x92764e13b7713c17},
    {V::kTahoe, T::kDumbbell, 1158, 0x6fdd7f375c4684fb},
    {V::kTahoe, T::kParkingLot, 1408, 0x04d216b4db3e76db},
    {V::kTahoe, T::kMultipath, 190, 0x8963f24f0fdb6be3},
    {V::kTdFr, T::kDumbbell, 1811, 0x6d1f924c18e77ad0},
    {V::kTdFr, T::kParkingLot, 2015, 0x14baaa07c9339212},
    {V::kTdFr, T::kMultipath, 5802, 0xd89f7b354c65c9dc},
    {V::kDsackNm, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kDsackNm, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kDsackNm, T::kMultipath, 249, 0x1bdc77796c3d8a8e},
    {V::kIncByOne, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kIncByOne, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kIncByOne, T::kMultipath, 299, 0x2ee97574def84431},
    {V::kIncByN, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kIncByN, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kIncByN, T::kMultipath, 533, 0xa98bff1ef144d684},
    {V::kEwma, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kEwma, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kEwma, T::kMultipath, 386, 0xef2de23b5c4a07da},
    {V::kEifel, T::kDumbbell, 5798, 0xaf718c8423203ef8},
    {V::kEifel, T::kParkingLot, 4122, 0x333d0a65d7f8075a},
    {V::kEifel, T::kMultipath, 251, 0x6a9655ef288dff54},
    {V::kDoor, T::kDumbbell, 1747, 0xcf1cb60868aea94c},
    {V::kDoor, T::kParkingLot, 1991, 0xfaf1fabffad68cce},
    {V::kDoor, T::kMultipath, 4976, 0x40dd9f453064def3},
};

class VariantTopologyGolden : public testing::TestWithParam<VariantGolden> {};

TEST_P(VariantTopologyGolden, DigestMatchesGolden) {
  const VariantGolden& golden = GetParam();
  FuzzCase c;
  c.topology = golden.topology;
  c.flows = 1;
  c.variants = {golden.variant};
  c.duration_s = 2.0;
  const FuzzResult r = run_fuzz_case(c);
  EXPECT_TRUE(r.ok) << r.first_violation;
  EXPECT_EQ(r.delivered, golden.delivered);
  EXPECT_EQ(r.delivery_hash, golden.hash);
}

std::string variant_golden_name(
    const testing::TestParamInfo<VariantGolden>& info) {
  std::string name = std::string(harness::to_string(info.param.variant)) +
                     "_" + to_string(info.param.topology);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllRows, VariantTopologyGolden,
                         testing::ValuesIn(kVariantGoldens),
                         variant_golden_name);

struct SeedGolden {
  std::uint64_t delivered;
  std::uint64_t hash;
};

// Row i is sample_fuzz_case(i + 1); every seed passes the checker.
constexpr SeedGolden kSeedGoldens[] = {
    {655, 0xc0a33eb4c4a58a3e},  // 1
    {22134, 0x03d4d0d26e8a3af6},  // 2
    {12296, 0xe5d7d6c373a54ec6},  // 3
    {20373, 0x50aeb0ef47909ec1},  // 4
    {29357, 0xb5bd4ff7fd867fea},  // 5
    {299, 0x7c2d06c243011449},  // 6
    {14913, 0xfcdfc33020c11625},  // 7
    {44, 0xb0e97bcb31e6f552},  // 8
    {8984, 0x841a2393d1072cbd},  // 9
    {2238, 0x84d0f72f11a88e21},  // 10
    {21122, 0x0c67bb88cba7a004},  // 11
    {4882, 0x7eb33ea8730aa2a7},  // 12
    {18984, 0xf3d9c1a75752b66f},  // 13
    {12794, 0xc081f6ff5c94ce57},  // 14
    {6509, 0x88b21ea81579fabd},  // 15
    {1830, 0x26f4af6dd3d07a41},  // 16
    {8954, 0x059a1a8094ecfb9c},  // 17
    {12095, 0x37a60638bccb6d62},  // 18
    {18418, 0xcb2ab5a55b865e83},  // 19
    {12485, 0xd63db489cb5fa25f},  // 20
    {1067, 0xb4e04bf15e8493f7},  // 21
    {78, 0xadc6893cf44c8ef4},  // 22
    {84, 0x9b3325b1d252d136},  // 23
    {525, 0xc284b397756d064b},  // 24
    {635, 0x27b38d21668c66f0},  // 25
    {40160, 0xa28ac5fd8852c390},  // 26
    {31714, 0x96f1361899b9eb7e},  // 27
    {3665, 0x4d15335931a82b67},  // 28
    {6020, 0x68401cef9e9e705c},  // 29
    {11577, 0x9ec570463a9a4a44},  // 30
    {372, 0x7184b56da08a2683},  // 31
    {1212, 0x2599efb54dc6e0f5},  // 32
    {1020, 0x218e10cc64d4f3fa},  // 33
    {9576, 0x37f814d5ac5222ed},  // 34
    {5964, 0xd83e726d91c982ff},  // 35
    {10196, 0x3b02b245eb5403c4},  // 36
    {1810, 0x6a07d0116c99d9be},  // 37
    {1512, 0xab08f0b0751878d0},  // 38
    {516, 0x1db23d7b5e0ebe5a},  // 39
    {16442, 0xfb1e748fcec23f12},  // 40
    {10483, 0x7b34b498ade8d6f8},  // 41
    {14868, 0x23ffc8321e662421},  // 42
    {11135, 0x9d0cc3b92e5babac},  // 43
    {794, 0x3f2faf43ede4cf4c},  // 44
    {9220, 0x6888307345adcf04},  // 45
    {7062, 0x545aeec1da15e4eb},  // 46
    {22248, 0x3d517ec9563c9af3},  // 47
    {9288, 0x9860f6cf3805a4dc},  // 48
    {1550, 0x20af150c45584d88},  // 49
    {17660, 0x51d426969e02a704},  // 50
    {1398, 0xfef2a825072cf606},  // 51
    {9677, 0xc6fb51d6c97234c4},  // 52
    {5137, 0xc22eaaeb08c2ddb1},  // 53
    {13800, 0xce3632ca5a8c4a98},  // 54
    {618, 0xdd01ddcffd5c1c7c},  // 55
    {17511, 0xdea3197df5cd1514},  // 56
    {7454, 0x9008511da752aded},  // 57
    {4829, 0xc76787628094c6df},  // 58
    {20011, 0xc40e477f6a224771},  // 59
    {267, 0x0d203eccb618787e},  // 60
    {34696, 0x9dd3f515f58def33},  // 61
    {5428, 0xfdb7be0ef3786dc4},  // 62
    {21803, 0x11ab168ba711b726},  // 63
    {928, 0x3a21166a557bc626},  // 64
    {883, 0xdd1d83ddf8a1c5a6},  // 65
    {480, 0xae214066fc904dd7},  // 66
    {4336, 0xa4e9940343cd85cb},  // 67
    {13676, 0x66237239b7043610},  // 68
    {694, 0x1087be8b58475645},  // 69
    {858, 0x0f8102909dc507a5},  // 70
    {1033, 0x3a670b062fa4ae5e},  // 71
    {19278, 0x2f4c1daadd66f910},  // 72
    {9786, 0x5b64b696da6daa39},  // 73
    {23965, 0x747a034146da2880},  // 74
    {858, 0x790adbe953c8c709},  // 75
    {34314, 0x8057bdb5843f39f3},  // 76
    {10063, 0x9af70b98eb19cf46},  // 77
    {1351, 0xffc0d5f59217951b},  // 78
    {6366, 0x274106ec6e0c8f3d},  // 79
    {5434, 0x2a3c74e0a73d10d6},  // 80
    {23500, 0xd1df9bbacd1cd168},  // 81
    {20422, 0x988957bb82d64fb4},  // 82
    {6595, 0x6c11408f5e219332},  // 83
    {4142, 0x478eb288382e6563},  // 84
    {16018, 0x131dea97bc905dd9},  // 85
    {9026, 0x3dfaaa26c241b08f},  // 86
    {11388, 0x4752e70f0be42294},  // 87
    {1008, 0x27b61a3e3c9505dd},  // 88
    {2029, 0xe060106e12efd629},  // 89
    {8904, 0x30dbab0dc0510053},  // 90
    {10292, 0xd88fa67d83e919d1},  // 91
    {6203, 0xeb02e15acb26ee94},  // 92
    {2484, 0x0e19d7c625dd9d5a},  // 93
    {16096, 0x0d090e62d23a30e7},  // 94
    {6717, 0xa681abd41e0ab699},  // 95
    {33594, 0xc9085374401f1a74},  // 96
    {19329, 0x3b0306f5f0e5a86c},  // 97
    {13104, 0x0f9b5068994cc6bd},  // 98
    {30172, 0x4b8c5c36aad63f36},  // 99
    {937, 0x76b61989be11ada3},  // 100
    {10278, 0x20e6d1c24935c09f},  // 101
    {8558, 0xa27c4fde626847ac},  // 102
    {430, 0x389ba97a530f43b6},  // 103
    {5953, 0xab1764d1a411455c},  // 104
    {6948, 0x6f8d87ca6accc407},  // 105
    {7841, 0x92519671d4943838},  // 106
    {25724, 0xacda4ecec25f90cf},  // 107
    {21358, 0x2623d2314ae3d7b6},  // 108
    {16947, 0x024dcc8e7a194a4d},  // 109
    {10666, 0x5b0b0d859a906a63},  // 110
    {4032, 0xfa44adb02243c78e},  // 111
    {838, 0xb20bbfe2ef5a5ffd},  // 112
    {384, 0xf33d6e036f80c90b},  // 113
    {9769, 0x9e159dbf381b98a8},  // 114
    {5116, 0x2d21738d1aedfe06},  // 115
    {9770, 0x5cf2f7a737a98db1},  // 116
    {14874, 0xe1259579ca3b1fe2},  // 117
    {120, 0x206d84b3fe23e0a0},  // 118
    {1330, 0x2d756ac5c015647d},  // 119
    {6084, 0x5072576c33c6d655},  // 120
    {390, 0x6626fc6cfe8bb3c4},  // 121
    {2432, 0x7f3e44acf44b17da},  // 122
    {8772, 0x9d5b585c971f39ad},  // 123
    {32352, 0xb34b1846c3311d2d},  // 124
    {18070, 0x7d6ab36262d26f4e},  // 125
    {17088, 0xa6ee6dc205f8c6d9},  // 126
    {6507, 0x7ab8c6482f7b5ca1},  // 127
    {9883, 0xbfb5b253f4606f59},  // 128
    {23856, 0x698e18e08bffdd94},  // 129
    {18165, 0xd7b82aa7adeb3b07},  // 130
    {241, 0xca4b38d79f123afb},  // 131
    {1668, 0xf6179360d3b06e0f},  // 132
    {1686, 0x0f61dd7b5bab6c2b},  // 133
    {953, 0x6788c803153dc12e},  // 134
    {17036, 0xd771c2d6bcf71ea2},  // 135
    {13020, 0xf73465cb5b849185},  // 136
    {5984, 0x94892c4076896658},  // 137
    {570, 0x91d05311ec765067},  // 138
    {33799, 0xc47470bdf74b9615},  // 139
    {28635, 0x68f6ab0ffbb2c61c},  // 140
    {1283, 0x2eadf8a30badbaa7},  // 141
    {3515, 0x2b56aed6b3002cbe},  // 142
    {8242, 0x6e763445d3c09e3f},  // 143
    {20652, 0x22066a72d407d251},  // 144
    {26031, 0x064021d229ae668b},  // 145
    {34530, 0x8c43ff7a91519904},  // 146
    {13852, 0xe9dd578c57d9596a},  // 147
    {5005, 0xcba6d59a4c25d8dd},  // 148
    {30454, 0x9fa2a697281dfde1},  // 149
    {14061, 0x42f6b952a3ebf1f1},  // 150
    {20436, 0x62a884956c576a8f},  // 151
    {905, 0xb1f8db88e419ec13},  // 152
    {6537, 0xe286faedcb3a291f},  // 153
    {19928, 0x2df5a6dd2ab41ac2},  // 154
    {5466, 0xc9de11f40e8b90c6},  // 155
    {4676, 0xe2015c4d43074dfc},  // 156
    {7217, 0x7f8088d6859671dc},  // 157
    {601, 0xbe0a56de0e034f18},  // 158
    {1154, 0x8600d1ffe0da536b},  // 159
    {10450, 0x6a71d367baa3e663},  // 160
    {13428, 0x340184693324a610},  // 161
    {22306, 0xf1c3a8a70a29783c},  // 162
    {1718, 0xa0535f870dca255a},  // 163
    {4356, 0xeb247422aa23226e},  // 164
    {19466, 0xde11a86557d956d6},  // 165
    {6655, 0xb2ff4a770931a68c},  // 166
    {18516, 0xfc29b5700856d98d},  // 167
    {314, 0xe38fe4d99d3795d9},  // 168
    {4730, 0x4cb855a7aa0feb1d},  // 169
    {1150, 0x99a472d1a9c42df7},  // 170
    {12321, 0x9f639afacd1562b5},  // 171
    {6813, 0xddd001653d3c1534},  // 172
    {801, 0x579f3e0345fc4bfc},  // 173
    {8940, 0x39eac39a65434687},  // 174
    {4163, 0x740e288b558fe7ce},  // 175
    {1432, 0x916ff2399c711aac},  // 176
    {923, 0x4a10e1cf419ac5e8},  // 177
    {1944, 0xaa5fc8a42610c7b1},  // 178
    {7050, 0xd9fdb5bc006338f6},  // 179
    {4851, 0x288fd1b84bad5be4},  // 180
    {16900, 0x50e786073a25969f},  // 181
    {14323, 0x7469c5e535f29d44},  // 182
    {1960, 0x7484414540b4577e},  // 183
    {14953, 0x3213ec3f133d1b76},  // 184
    {1683, 0xedec3a35e85dff81},  // 185
    {1271, 0x3663460d9b5a5ec8},  // 186
    {28433, 0xde6c55c13864ca8d},  // 187
    {21084, 0xc3656db45cf303dc},  // 188
    {14302, 0x4199f650e49cf535},  // 189
    {9304, 0xd3d88a5b6126f22a},  // 190
    {1064, 0x87be7b6d3efbf347},  // 191
    {30701, 0x75a3bbfcef054f26},  // 192
    {2, 0xe7d83f5a24be8045},  // 193
    {4362, 0xb2189ed12c3bb31e},  // 194
    {672, 0x45fc0555c0345e58},  // 195
    {20144, 0x5b358bfc2fcee3ea},  // 196
    {10763, 0x1014b3777dd4eb16},  // 197
    {108, 0x46c051a59f657239},  // 198
    {11472, 0x0706fa752b3ff548},  // 199
    {10706, 0x62ffbe8d477a4110},  // 200
};

class FuzzSeedGolden : public testing::TestWithParam<int> {};

TEST_P(FuzzSeedGolden, DigestsMatchGoldens) {
  constexpr int kSeedsPerShard = 25;
  static_assert(std::size(kSeedGoldens) == 8 * kSeedsPerShard);
  const std::uint64_t first =
      1 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const FuzzCase c = sample_fuzz_case(seed);
    const FuzzResult r = run_fuzz_case(c);
    const SeedGolden& golden = kSeedGoldens[seed - 1];
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.first_violation;
    EXPECT_EQ(r.delivered, golden.delivered) << "seed " << seed;
    EXPECT_EQ(r.delivery_hash, golden.hash)
        << "seed " << seed << " (" << describe(c) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds1To200, FuzzSeedGolden, testing::Range(0, 8));

struct SeriesGolden {
  harness::TcpVariant variant;
  std::uint64_t samples;
  std::uint64_t hash;
};

constexpr SeriesGolden kSeriesGoldens[] = {
    {V::kTcpPr, 73945, 0xe9a42a9a409b27f7},
    {V::kSack, 17131, 0xf425d4d54a850a93},
    {V::kReno, 16149, 0x785057075d5f7f8d},
    {V::kIncByN, 40016, 0xadd6b60371272841},
};

class ObsSeriesGolden : public testing::TestWithParam<SeriesGolden> {};

TEST_P(ObsSeriesGolden, DigestMatchesGolden) {
  const SeriesGolden& golden = GetParam();
  harness::MultipathConfig config;
  config.variant = golden.variant;
  config.epsilon = 1;
  auto scenario = harness::make_multipath(config);
  obs::MetricRegistry registry;
  obs::MemorySeriesSink sink;
  registry.add_sink(&sink);
  scenario->attach_observability(registry);
  scenario->sched.run_until(sim::TimePoint::from_seconds(10));

  std::uint64_t hash = util::kFnvOffsetBasis;
  double max_ooo = 0;
  for (const obs::Sample& s : sink.samples()) {
    hash = util::fnv1a_u64(hash, static_cast<std::uint64_t>(s.time.as_nanos()));
    hash = util::fnv1a_u64(hash, s.metric);
    hash = util::fnv1a_u64(hash, static_cast<std::uint64_t>(s.flow));
    hash = util::fnv1a_u64(hash, std::bit_cast<std::uint64_t>(s.value));
  }
  for (const auto& [t, v] : sink.series("ooo_buffered")) {
    max_ooo = std::max(max_ooo, v);
  }
  // The mesh must reorder, or the row would not exercise the receiver's
  // out-of-order buffer.
  EXPECT_GT(max_ooo, 0);
  EXPECT_EQ(sink.samples().size(), golden.samples);
  EXPECT_EQ(hash, golden.hash) << std::hex << "0x" << hash;
}

std::string series_golden_name(
    const testing::TestParamInfo<SeriesGolden>& info) {
  std::string name = harness::to_string(info.param.variant);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(MultipathReordering, ObsSeriesGolden,
                         testing::ValuesIn(kSeriesGoldens),
                         series_golden_name);

}  // namespace
}  // namespace tcppr::validate
