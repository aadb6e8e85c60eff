#include "src/sops/particle_system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/lattice/shapes.hpp"
#include "src/sops/render.hpp"
#include "src/util/rng.hpp"

namespace sops::system {
namespace {

using lattice::Node;

ParticleSystem two_color_triangle() {
  // Triangle: (0,0) color 0, (1,0) color 0, (0,1) color 1.
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<Color> colors{0, 0, 1};
  return ParticleSystem(nodes, colors);
}

TEST(ParticleSystemTest, ConstructionBasics) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_EQ(sys.num_colors(), 2);
  EXPECT_TRUE(sys.occupied(Node{0, 0}));
  EXPECT_FALSE(sys.occupied(Node{5, 5}));
  EXPECT_EQ(sys.particle_at(Node{1, 0}), 1);
  EXPECT_EQ(sys.particle_at(Node{9, 9}), kNoParticle);
  EXPECT_EQ(sys.color(2), 1);
}

TEST(ParticleSystemTest, RejectsBadInput) {
  const std::vector<Node> dup{{0, 0}, {0, 0}};
  EXPECT_THROW(ParticleSystem{dup}, std::invalid_argument);
  const std::vector<Node> one{{0, 0}};
  const std::vector<Color> two_colors{0, 1};
  EXPECT_THROW(ParticleSystem(one, two_colors), std::invalid_argument);
  const std::vector<Color> bad_color{kMaxColors};
  EXPECT_THROW(ParticleSystem(one, bad_color), std::invalid_argument);
  EXPECT_THROW(ParticleSystem{std::vector<Node>{}}, std::invalid_argument);
}

TEST(ParticleSystemTest, EdgeCountsOnTriangle) {
  ParticleSystem sys = two_color_triangle();
  // All three pairs are adjacent: (0,0)-(1,0), (0,0)-(0,1), (1,0)-(0,1).
  EXPECT_EQ(sys.edge_count(), 3);
  // Hetero edges: (0,0)-(0,1) and (1,0)-(0,1).
  EXPECT_EQ(sys.hetero_edge_count(), 2);
  EXPECT_EQ(sys.homo_edge_count(), 1);
}

TEST(ParticleSystemTest, PerimeterIdentityOnTriangle) {
  ParticleSystem sys = two_color_triangle();
  // p = 3n - 3 - e = 9 - 3 - 3 = 3.
  EXPECT_EQ(sys.perimeter_by_identity(), 3);
}

TEST(ParticleSystemTest, NeighborCounts) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_EQ(sys.neighbor_count(Node{0, 0}), 2);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 0), 1);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 1), 1);
  // Excluding (0,1) removes the color-1 neighbor.
  EXPECT_EQ(sys.neighbor_count(Node{0, 0}, Node{0, 1}), 1);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 1, Node{0, 1}), 0);
  // An empty node adjacent to all three particles: (1,1)? neighbors of
  // (1,1) are (2,1),(1,2),(0,2),(0,1),(1,0),(2,0) — contains (0,1),(1,0).
  EXPECT_EQ(sys.neighbor_count(Node{1, 1}), 2);
}

TEST(ParticleSystemTest, ApplyMoveUpdatesEverything) {
  ParticleSystem sys = two_color_triangle();
  // Move particle 2 (color 1) from (0,1) to (1,1)? (1,1) is adjacent to
  // (0,1)? (0,1)+d0 = (1,1). Yes.
  sys.apply_move(2, Node{1, 1});
  EXPECT_EQ(sys.position(2), (Node{1, 1}));
  EXPECT_FALSE(sys.occupied(Node{0, 1}));
  EXPECT_TRUE(sys.occupied(Node{1, 1}));
  // New edges: (1,1)-(1,0) only (and (1,1)-(0,1) gone since (0,1) empty).
  // Edges now: (0,0)-(1,0) homo, (1,0)-(1,1) hetero.
  EXPECT_EQ(sys.edge_count(), 2);
  EXPECT_EQ(sys.hetero_edge_count(), 1);

  // Incremental counts must match a fresh recount.
  const std::int64_t e = sys.edge_count();
  const std::int64_t h = sys.hetero_edge_count();
  sys.recount_edges();
  EXPECT_EQ(sys.edge_count(), e);
  EXPECT_EQ(sys.hetero_edge_count(), h);
}

TEST(ParticleSystemTest, ApplyMoveValidatesPreconditions) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_THROW(sys.apply_move(0, Node{5, 5}), std::invalid_argument);
  EXPECT_THROW(sys.apply_move(0, Node{1, 0}), std::invalid_argument);
}

TEST(ParticleSystemTest, ApplySwapExchangesAndUpdatesHetero) {
  // Row of four: colors 0,0,1,1. Edges: 3 total, 1 hetero (middle).
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const std::vector<Color> colors{0, 0, 1, 1};
  ParticleSystem sys(nodes, colors);
  EXPECT_EQ(sys.hetero_edge_count(), 1);

  // Swap particles 1 and 2 → colors along the row become 0,1,0,1.
  sys.apply_swap(1, 2);
  EXPECT_EQ(sys.position(1), (Node{2, 0}));
  EXPECT_EQ(sys.position(2), (Node{1, 0}));
  EXPECT_EQ(sys.particle_at(Node{1, 0}), 2);
  EXPECT_EQ(sys.hetero_edge_count(), 3);
  const std::int64_t h = sys.hetero_edge_count();
  sys.recount_edges();
  EXPECT_EQ(sys.hetero_edge_count(), h);
  // Total edges unchanged by swaps.
  EXPECT_EQ(sys.edge_count(), 3);
}

TEST(ParticleSystemTest, SameColorSwapIsNoOp) {
  const std::vector<Node> nodes{{0, 0}, {1, 0}};
  const std::vector<Color> colors{1, 1};
  ParticleSystem sys(nodes, colors);
  sys.apply_swap(0, 1);
  EXPECT_EQ(sys.position(0), (Node{0, 0}));  // implementation skips no-ops
  EXPECT_EQ(sys.hetero_edge_count(), 0);
}

TEST(ParticleSystemTest, SwapValidatesAdjacency) {
  const std::vector<Node> nodes{{0, 0}, {3, 0}};
  const std::vector<Color> colors{0, 1};
  ParticleSystem sys(nodes, colors);
  EXPECT_THROW(sys.apply_swap(0, 1), std::invalid_argument);
}

TEST(ParticleSystemTest, ColorHistogram) {
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {2, 0}, {0, 1}};
  const std::vector<Color> colors{0, 1, 1, 2};
  ParticleSystem sys(nodes, colors);
  const auto hist = sys.color_histogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
}

// Property test: random moves and swaps keep the incremental edge
// bookkeeping consistent with a full recount.
TEST(ParticleSystemTest, IncrementalCountsMatchRecountUnderChurn) {
  util::Rng rng(404);
  auto nodes = lattice::compact_blob(40);
  std::vector<Color> colors(40);
  for (auto& c : colors) c = static_cast<Color>(rng.below(2));
  ParticleSystem sys(nodes, colors);

  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node target = lattice::neighbor(sys.position(i), dir);
    const ParticleIndex j = sys.particle_at(target);
    if (j == kNoParticle) {
      sys.apply_move(i, target);
    } else if (j != i) {
      sys.apply_swap(i, j);
    }
    if (step % 100 == 0) {
      const std::int64_t e = sys.edge_count();
      const std::int64_t h = sys.hetero_edge_count();
      sys.recount_edges();
      ASSERT_EQ(sys.edge_count(), e) << "step " << step;
      ASSERT_EQ(sys.hetero_edge_count(), h) << "step " << step;
    }
  }
}

TEST(RenderTest, AsciiShowsBothGlyphs) {
  ParticleSystem sys = two_color_triangle();
  const std::string art = render_ascii(sys);
  EXPECT_NE(art.find('o'), std::string::npos);
  EXPECT_NE(art.find('x'), std::string::npos);
}

TEST(RenderTest, ImageHasColoredPixels) {
  ParticleSystem sys = two_color_triangle();
  const util::Image img = render_image(sys, 10.0);
  EXPECT_GT(img.width(), 0u);
  EXPECT_GT(img.height(), 0u);
  // At least one non-white pixel.
  bool colored = false;
  for (std::size_t y = 0; y < img.height() && !colored; ++y) {
    for (std::size_t x = 0; x < img.width() && !colored; ++x) {
      colored = !(img.get(x, y) == util::Rgb{255, 255, 255});
    }
  }
  EXPECT_TRUE(colored);
}

}  // namespace
}  // namespace sops::system
