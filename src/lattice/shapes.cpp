#include "src/lattice/shapes.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "src/util/hash_table.hpp"

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

/// True iff the occupied neighbors of `v` form one nonempty contiguous
/// cyclic run — the local condition under which attaching `v` to an
/// arrangement keeps it hole-free and simply connected.
[[nodiscard]] bool contiguous_occupied_ring(const util::FlatSet& occ, Node v) {
  int occupied_count = 0;
  int transitions = 0;
  bool prev = occ.contains(pack(neighbor(v, kDegree - 1)));
  for (int k = 0; k < kDegree; ++k) {
    const bool cur = occ.contains(pack(neighbor(v, k)));
    occupied_count += cur ? 1 : 0;
    transitions += (cur != prev) ? 1 : 0;
    prev = cur;
  }
  return occupied_count > 0 && transitions <= 2;
}

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
  std::vector<Node> out{Node{0, 0}};
  util::FlatSet occ;
  occ.insert(pack(Node{0, 0}));

  std::vector<Node> frontier;
  util::FlatSet in_frontier;
  const auto push_frontier = [&](Node v) {
    const std::uint64_t key = pack(v);
    if (!occ.contains(key) && in_frontier.insert(key)) frontier.push_back(v);
  };
  for (int k = 0; k < kDegree; ++k) push_frontier(neighbor(Node{0, 0}, k));

  while (out.size() < n) {
    Node chosen{};
    bool found = false;
    // Random picks first; fall back to a scan so termination is certain
    // (a valid attachment always exists on the outer boundary).
    for (int attempt = 0; attempt < 64 && !found; ++attempt) {
      const auto idx = static_cast<std::size_t>(rng.below(frontier.size()));
      if (contiguous_occupied_ring(occ, frontier[idx])) {
        chosen = frontier[idx];
        frontier[idx] = frontier.back();
        frontier.pop_back();
        found = true;
      }
    }
    if (!found) {
      for (std::size_t idx = 0; idx < frontier.size(); ++idx) {
        if (contiguous_occupied_ring(occ, frontier[idx])) {
          chosen = frontier[idx];
          frontier[idx] = frontier.back();
          frontier.pop_back();
          found = true;
          break;
        }
      }
    }
    if (!found) {
      throw std::logic_error("random_blob: no valid attachment node");
    }
    in_frontier.erase(pack(chosen));
    occ.insert(pack(chosen));
    out.push_back(chosen);
    for (int k = 0; k < kDegree; ++k) push_frontier(neighbor(chosen, k));
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
