#include "src/lattice/shapes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/sops/invariants.hpp"
#include "src/sops/particle_system.hpp"

namespace sops::lattice {
namespace {

std::set<std::uint64_t> keyset(const std::vector<Node>& nodes) {
  std::set<std::uint64_t> out;
  for (const Node& v : nodes) out.insert(pack(v));
  return out;
}

TEST(Hexagon, SizesMatchFormula) {
  for (std::int32_t ell = 0; ell <= 8; ++ell) {
    const auto nodes = hexagon(ell);
    EXPECT_EQ(nodes.size(),
              static_cast<std::size_t>(3 * ell * ell + 3 * ell + 1));
    EXPECT_EQ(keyset(nodes).size(), nodes.size());  // no duplicates
  }
}

TEST(Hexagon, NegativeSideThrows) {
  EXPECT_THROW(hexagon(-1), std::invalid_argument);
}

TEST(Hexagon, AllNodesWithinDistance) {
  const auto nodes = hexagon(3);
  for (const Node& v : nodes) {
    EXPECT_LE(distance(Node{0, 0}, v), 3);
  }
}

TEST(CompactBlob, ExactSizeForAllSmallN) {
  for (std::size_t n = 1; n <= 300; ++n) {
    const auto nodes = compact_blob(n);
    ASSERT_EQ(nodes.size(), n);
    ASSERT_EQ(keyset(nodes).size(), n) << "duplicates at n=" << n;
  }
}

TEST(CompactBlob, ConnectedAndHoleFree) {
  for (std::size_t n : {1u, 2u, 6u, 7u, 8u, 19u, 36u, 37u, 61u, 100u, 169u}) {
    const auto nodes = compact_blob(n);
    EXPECT_TRUE(system::nodes_connected(nodes)) << n;
    EXPECT_FALSE(system::nodes_have_hole(nodes)) << n;
  }
}

// Lemma 2: the construction has perimeter at most 2*sqrt(3)*sqrt(n).
TEST(CompactBlob, Lemma2PerimeterBound) {
  for (std::size_t n = 1; n <= 400; ++n) {
    const system::ParticleSystem sys(compact_blob(n));
    const double p = n == 1 ? 0.0
                            : static_cast<double>(system::perimeter_walk(sys));
    EXPECT_LE(p, 2.0 * std::sqrt(3.0) * std::sqrt(static_cast<double>(n)) + 1e-9)
        << "n=" << n;
  }
}

TEST(Line, GeometryAndPerimeter) {
  const auto nodes = line(5);
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_TRUE(system::nodes_connected(nodes));
  EXPECT_FALSE(system::nodes_have_hole(nodes));
  const system::ParticleSystem sys(nodes);
  // A line of n has e = n-1, so p = 3n-3-(n-1) = 2n-2.
  EXPECT_EQ(sys.edge_count(), 4);
  EXPECT_EQ(system::perimeter_walk(sys), 8);
}

TEST(Parallelogram, SizeAndValidity) {
  const auto nodes = parallelogram(5, 4);
  EXPECT_EQ(nodes.size(), 20u);
  EXPECT_TRUE(system::nodes_connected(nodes));
  EXPECT_FALSE(system::nodes_have_hole(nodes));
  EXPECT_THROW(parallelogram(0, 3), std::invalid_argument);
}

TEST(RandomBlob, AlwaysConnectedHoleFreeExactSize) {
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.below(90));
    const auto nodes = random_blob(n, rng);
    ASSERT_EQ(nodes.size(), n);
    ASSERT_EQ(keyset(nodes).size(), n);
    EXPECT_TRUE(system::nodes_connected(nodes));
    EXPECT_FALSE(system::nodes_have_hole(nodes));
  }
}

TEST(RandomBlob, DifferentSeedsGiveDifferentShapes) {
  util::Rng rng_a(1), rng_b(2);
  const auto a = random_blob(60, rng_a);
  const auto b = random_blob(60, rng_b);
  EXPECT_NE(keyset(a), keyset(b));
}

// FNV-1a over the eight little-end bytes of `word`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every run that starts from a random blob (Figures 2 and 3, the sweep
// service) depends on the nodes in order and on the words the growth
// draws, and the golden reports reach only a few sizes. These hashes
// were recorded from the two-hash-set growth the byte grid replaced,
// so a grid that picks another node, or draws one word more or fewer,
// fails here at any size.
TEST(RandomBlob, FingerprintsPinNodesAndGeneratorState) {
  struct Case {
    std::size_t n;
    std::uint64_t seed;
    std::uint64_t nodes_hash;
    std::uint64_t state_hash;
  };
  constexpr Case kCases[] = {
      {1, 1, 0xa8c7f832281a39c5ULL, 0x46ab0fe2f069e97aULL},
      {1, 42, 0xa8c7f832281a39c5ULL, 0xbc447aac56accc88ULL},
      {1, 2018, 0xa8c7f832281a39c5ULL, 0x40a0da8b60fc67e7ULL},
      {2, 1, 0x434cd856a3b177c1ULL, 0x9652028d9712e96aULL},
      {2, 42, 0x650d82be8614cf81ULL, 0xd796f54b0328d12eULL},
      {2, 2018, 0x692558b056101a44ULL, 0xe7a4809a453c1b1aULL},
      {3, 1, 0xb2c3f75e5c262fadULL, 0x46ab75155bff56acULL},
      {3, 42, 0x75acd15ab9e34d10ULL, 0xfe99140deafebd73ULL},
      {3, 2018, 0x5ac5b20685a17241ULL, 0x435dc50a359c14fdULL},
      {24, 1, 0x6936883014665a23ULL, 0xaebd47b24e7ff64fULL},
      {24, 42, 0x7b24e0de8e2826b2ULL, 0xc2c85cad72a5d5b1ULL},
      {24, 2018, 0x7550d4d987572426ULL, 0x104e6f6a278ab102ULL},
      {100, 1, 0x51bd551ee0117958ULL, 0x113df570ecb64e25ULL},
      {100, 42, 0xa3f5382ee12a0ef6ULL, 0xca9f291bb1657cf7ULL},
      {100, 2018, 0x5e25987d2c7c58ebULL, 0xbc5854d72a5cc2b1ULL},
      {200, 1, 0x24c4ae2a7c705a75ULL, 0x3ca6fe28c7a2b92bULL},
      {200, 42, 0xc7f0845a3148a9a8ULL, 0x43b1eed8ba52c45dULL},
      {200, 2018, 0x52e9c6beade04a13ULL, 0x2db63d2e52e3c5adULL},
      {1000, 1, 0xf7398dd2ba265d20ULL, 0x16f805ddf4a8c808ULL},
      {1000, 42, 0xd23e599e3e07b8f0ULL, 0xc788779fea9acb66ULL},
      {1000, 2018, 0x67e6a21ddaf2d99bULL, 0x21df6c9dbbbfec0fULL},
      {20000, 1, 0xe045b4ddc7d9a171ULL, 0x70005cf842fc0debULL},
      {20000, 42, 0x6768058a865daeddULL, 0xb601d8b50a292fdaULL},
      {20000, 2018, 0x569cc57ba8d606dbULL, 0xdd12fc707bc5c7fcULL},
  };
  for (const Case& c : kCases) {
    util::Rng rng(c.seed);
    const auto nodes = random_blob(c.n, rng);
    ASSERT_EQ(nodes.size(), c.n);
    std::uint64_t nodes_hash = 0xcbf29ce484222325ULL;
    for (const Node& v : nodes) nodes_hash = fnv1a(nodes_hash, pack(v));
    std::uint64_t state_hash = 0xcbf29ce484222325ULL;
    for (const std::uint64_t w : rng.state()) state_hash = fnv1a(state_hash, w);
    EXPECT_EQ(nodes_hash, c.nodes_hash) << "n=" << c.n << " seed=" << c.seed;
    EXPECT_EQ(state_hash, c.state_hash) << "n=" << c.n << " seed=" << c.seed;
  }
}

TEST(Dumbbell, ConnectedWithTwoLobes) {
  const auto nodes = dumbbell(19, 19, 3);
  EXPECT_EQ(nodes.size(), 19u + 19u + 3u);
  EXPECT_EQ(keyset(nodes).size(), nodes.size());
  EXPECT_TRUE(system::nodes_connected(nodes));
  EXPECT_FALSE(system::nodes_have_hole(nodes));
}

TEST(Dumbbell, RejectsDegenerateArguments) {
  EXPECT_THROW(dumbbell(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(dumbbell(5, 5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sops::lattice
