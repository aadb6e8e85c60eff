#include "src/lattice/shapes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

namespace sops::lattice {

namespace {

/// The ring of nodes at hex distance `r` from the origin, in cyclic order
/// starting at (r, 0) and proceeding counterclockwise.
[[nodiscard]] std::vector<Node> ring(std::int32_t r) {
  if (r == 0) return {Node{0, 0}};
  std::vector<Node> out;
  out.reserve(static_cast<std::size_t>(6) * static_cast<std::size_t>(r));
  Node v{r, 0};
  // Walk r steps in each of the six directions starting with d2 so the
  // path turns counterclockwise around the origin.
  for (int side = 0; side < kDegree; ++side) {
    for (std::int32_t step = 0; step < r; ++step) {
      out.push_back(v);
      v = neighbor(v, 2 + side);
    }
  }
  return out;
}

/// Bit m set iff the 6-bit mask m (bit k: the neighbor in direction k
/// is occupied) is one nonempty contiguous cyclic run — the local
/// condition under which attaching a node to an arrangement keeps it
/// hole-free and simply connected.
constexpr std::uint64_t kContiguousRing = [] {
  std::uint64_t bits = 0;
  for (unsigned m = 1; m < 64; ++m) {
    int transitions = 0;
    for (int k = 0; k < kDegree; ++k) {
      const unsigned prev = (m >> ((k + kDegree - 1) % kDegree)) & 1u;
      transitions += ((m >> k) & 1u) != prev ? 1 : 0;
    }
    if (transitions <= 2) bits |= 1ULL << m;
  }
  return bits;
}();

/// random_blob's occupied and frontier flags, one byte per node over a
/// box of G_Δ, row-major in y. Every placed node keeps kMargin nodes of
/// box on each side, so the frontier and each frontier node's six
/// neighbors lie inside it.
class BlobGrid {
 public:
  static constexpr std::uint8_t kOccupied = 1;
  static constexpr std::uint8_t kFrontier = 2;

  explicit BlobGrid(std::int32_t side)
      : x0_(-side / 2),
        y0_(-side / 2),
        w_(side),
        h_(side),
        flags_(static_cast<std::size_t>(side) *
               static_cast<std::size_t>(side)) {}

  [[nodiscard]] std::uint8_t& at(Node v) noexcept { return flags_[index(v)]; }

  /// True iff the occupied neighbors of `v` form one nonempty
  /// contiguous cyclic run.
  [[nodiscard]] bool attachable(Node v) const noexcept {
    const std::uint8_t* f = flags_.data() + index(v);
    const std::ptrdiff_t w = w_;
    const unsigned mask = (f[1] & kOccupied) | (f[w] & kOccupied) << 1 |
                          (f[w - 1] & kOccupied) << 2 |
                          (f[-1] & kOccupied) << 3 |
                          (f[-w] & kOccupied) << 4 |
                          (f[1 - w] & kOccupied) << 5;
    return (kContiguousRing >> mask) & 1u;
  }

  /// Makes room for placing `v`, a neighbor of a placed node: doubles
  /// the box toward each edge that `v` comes within kMargin of. One
  /// doubling suffices, since `v` lies at least kMargin − 1 inside.
  void reserve_around(Node v) {
    std::int32_t x0 = x0_;
    std::int32_t y0 = y0_;
    std::int32_t w = w_;
    std::int32_t h = h_;
    if (v.x - x0 < kMargin) {
      x0 -= w;
      w *= 2;
    } else if (x0 + w - 1 - v.x < kMargin) {
      w *= 2;
    }
    if (v.y - y0 < kMargin) {
      y0 -= h;
      h *= 2;
    } else if (y0 + h - 1 - v.y < kMargin) {
      h *= 2;
    }
    if (w == w_ && h == h_) return;
    std::vector<std::uint8_t> flags(static_cast<std::size_t>(w) *
                                    static_cast<std::size_t>(h));
    for (std::int32_t row = 0; row < h_; ++row) {
      const auto* src = flags_.data() + static_cast<std::ptrdiff_t>(row) * w_;
      auto* dst = flags.data() +
                  static_cast<std::ptrdiff_t>(row + y0_ - y0) * w + (x0_ - x0);
      std::copy(src, src + w_, dst);
    }
    flags_.swap(flags);
    x0_ = x0;
    y0_ = y0;
    w_ = w;
    h_ = h;
  }

 private:
  static constexpr std::int32_t kMargin = 2;

  [[nodiscard]] std::size_t index(Node v) const noexcept {
    return static_cast<std::size_t>(v.y - y0_) * static_cast<std::size_t>(w_) +
           static_cast<std::size_t>(v.x - x0_);
  }

  std::int32_t x0_;
  std::int32_t y0_;
  std::int32_t w_;
  std::int32_t h_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace

std::vector<Node> hexagon(std::int32_t ell) {
  if (ell < 0) throw std::invalid_argument("hexagon: negative side length");
  std::vector<Node> out;
  out.reserve(static_cast<std::size_t>(3 * ell * ell + 3 * ell + 1));
  for (std::int32_t x = -ell; x <= ell; ++x) {
    for (std::int32_t y = -ell; y <= ell; ++y) {
      if (std::abs(x + y) <= ell) out.push_back(Node{x, y});
    }
  }
  return out;
}

std::vector<Node> compact_blob(std::size_t n) {
  if (n == 0) return {};
  // Largest full hexagon with 3l^2+3l+1 <= n.
  std::int32_t ell = 0;
  while (static_cast<std::size_t>(3 * (ell + 1) * (ell + 1) + 3 * (ell + 1) +
                                  1) <= n) {
    ++ell;
  }
  std::vector<Node> out = hexagon(ell);
  const std::size_t base = out.size();
  if (base < n) {
    const std::vector<Node> outer = ring(ell + 1);
    const std::size_t k = n - base;
    out.insert(out.end(), outer.begin(),
               outer.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return out;
}

std::vector<Node> line(std::size_t n) {
  std::vector<Node> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Node{static_cast<std::int32_t>(i), 0});
  }
  return out;
}

std::vector<Node> parallelogram(std::int32_t cols, std::int32_t rows) {
  if (cols <= 0 || rows <= 0) {
    throw std::invalid_argument("parallelogram: nonpositive dimension");
  }
  std::vector<Node> out;
  out.reserve(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
  for (std::int32_t y = 0; y < rows; ++y) {
    for (std::int32_t x = 0; x < cols; ++x) {
      out.push_back(Node{x, y});
    }
  }
  return out;
}

std::vector<Node> random_blob(std::size_t n, util::Rng& rng) {
  if (n == 0) return {};
  std::vector<Node> out;
  out.reserve(n);
  // A random blob of n nodes spans about 1.5·√n nodes on each axis, so
  // this box rarely needs to grow.
  const double span = 2.0 * std::sqrt(static_cast<double>(n));
  BlobGrid grid(static_cast<std::int32_t>(span) + 8);
  std::vector<Node> frontier;
  const auto place = [&](Node v) {
    grid.reserve_around(v);
    grid.at(v) = BlobGrid::kOccupied;
    out.push_back(v);
    for (int k = 0; k < kDegree; ++k) {
      const Node u = neighbor(v, k);
      std::uint8_t& flag = grid.at(u);
      if (flag == 0) {
        flag = BlobGrid::kFrontier;
        frontier.push_back(u);
      }
    }
  };
  place(Node{0, 0});

  while (out.size() < n) {
    std::size_t chosen = frontier.size();
    // Random picks first; fall back to a scan so termination is certain
    // (a valid attachment always exists on the outer boundary).
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto idx = static_cast<std::size_t>(rng.below(frontier.size()));
      if (grid.attachable(frontier[idx])) {
        chosen = idx;
        break;
      }
    }
    if (chosen == frontier.size()) {
      chosen = static_cast<std::size_t>(
          std::find_if(frontier.begin(), frontier.end(),
                       [&grid](Node v) { return grid.attachable(v); }) -
          frontier.begin());
    }
    if (chosen == frontier.size()) {
      throw std::logic_error("random_blob: no valid attachment node");
    }
    const Node v = frontier[chosen];
    frontier[chosen] = frontier.back();
    frontier.pop_back();
    place(v);
  }
  return out;
}

std::vector<Node> dumbbell(std::size_t n1, std::size_t n2, std::int32_t gap) {
  if (n1 == 0 || n2 == 0 || gap < 1) {
    throw std::invalid_argument("dumbbell: need n1,n2 >= 1 and gap >= 1");
  }
  std::vector<Node> left = compact_blob(n1);
  std::vector<Node> right = compact_blob(n2);

  std::int32_t left_max_x = left.front().x;
  for (const Node& v : left) {
    if (v.y == 0) left_max_x = std::max(left_max_x, v.x);
  }
  std::int32_t right_min_x = right.front().x;
  for (const Node& v : right) {
    if (v.y == 0) right_min_x = std::min(right_min_x, v.x);
  }

  std::vector<Node> out = std::move(left);
  for (std::int32_t i = 1; i <= gap; ++i) {
    out.push_back(Node{left_max_x + i, 0});
  }
  const std::int32_t shift = left_max_x + gap + 1 - right_min_x;
  for (const Node& v : right) {
    out.push_back(Node{v.x + shift, v.y});
  }
  return out;
}

}  // namespace sops::lattice
