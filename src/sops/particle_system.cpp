#include "src/sops/particle_system.hpp"

#include <stdexcept>

namespace sops::system {

using lattice::kDegree;
using lattice::Node;

ParticleSystem::ParticleSystem(std::span<const Node> positions,
                               std::span<const Color> colors)
    : positions_(positions.begin(), positions.end()),
      colors_(colors.begin(), colors.end()) {
  if (positions_.size() != colors_.size()) {
    throw std::invalid_argument("ParticleSystem: positions/colors size mismatch");
  }
  if (positions_.empty()) {
    throw std::invalid_argument("ParticleSystem: empty system");
  }
  // Pre-size to >= 2x the particle count: the count is fixed for the
  // lifetime of the system, so no rehash can ever land mid-trajectory.
  occupancy_.reserve(positions_.size() * 2);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    if (colors_[i] >= kMaxColors) {
      throw std::invalid_argument("ParticleSystem: color out of range");
    }
    num_colors_ = std::max(num_colors_, static_cast<int>(colors_[i]) + 1);
    if (!occupancy_.insert(lattice::pack(positions_[i]),
                           static_cast<ParticleIndex>(i))) {
      throw std::invalid_argument("ParticleSystem: duplicate node");
    }
  }
  recount_edges();
}

ParticleSystem::ParticleSystem(std::span<const Node> positions)
    : ParticleSystem(positions,
                     std::vector<Color>(positions.size(), Color{0})) {}

int ParticleSystem::neighbor_count(Node v, Node exclude) const noexcept {
  int count = 0;
  for (int k = 0; k < kDegree; ++k) {
    const Node u = lattice::neighbor(v, k);
    if (u == exclude) continue;
    if (occupied(u)) ++count;
  }
  return count;
}

int ParticleSystem::neighbor_count_color(Node v, Color c,
                                         Node exclude) const noexcept {
  int count = 0;
  for (int k = 0; k < kDegree; ++k) {
    const Node u = lattice::neighbor(v, k);
    if (u == exclude) continue;
    const ParticleIndex p = particle_at(u);
    if (p != kNoParticle && colors_[static_cast<std::size_t>(p)] == c) ++count;
  }
  return count;
}

std::int64_t ParticleSystem::count_incident_edges(
    Node v, Color c, std::int64_t* hetero) const noexcept {
  std::int64_t total = 0;
  std::int64_t het = 0;
  for (int k = 0; k < kDegree; ++k) {
    const ParticleIndex p = particle_at(lattice::neighbor(v, k));
    if (p == kNoParticle) continue;
    ++total;
    if (colors_[static_cast<std::size_t>(p)] != c) ++het;
  }
  if (hetero != nullptr) *hetero = het;
  return total;
}

void ParticleSystem::apply_move(ParticleIndex i, Node to) {
  const Node from = position(i);
  if (!lattice::adjacent(from, to)) {
    throw std::invalid_argument("apply_move: target not adjacent");
  }
  if (occupied(to)) {
    throw std::invalid_argument("apply_move: target occupied");
  }
  const Color c = color(i);

  std::int64_t het_old = 0;
  const std::int64_t deg_old = count_incident_edges(from, c, &het_old);

  occupancy_.erase(lattice::pack(from));
  positions_[static_cast<std::size_t>(i)] = to;
  occupancy_.insert(lattice::pack(to), i);

  std::int64_t het_new = 0;
  const std::int64_t deg_new = count_incident_edges(to, c, &het_new);

  edges_ += deg_new - deg_old;
  hetero_edges_ += het_new - het_old;
}

void ParticleSystem::sync_index() noexcept {
  if (!index_stale_) return;
  // The table was reserved for n keys, so no insert can grow (or
  // allocate) here.
  occupancy_.clear();
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    occupancy_.insert(lattice::pack(positions_[i]),
                      static_cast<ParticleIndex>(i));
  }
  index_stale_ = false;
}

void ParticleSystem::apply_swap(ParticleIndex i, ParticleIndex j) {
  const Node a = position(i);
  const Node b = position(j);
  if (!lattice::adjacent(a, b)) {
    throw std::invalid_argument("apply_swap: particles not adjacent");
  }
  const Color ci = color(i);
  const Color cj = color(j);
  if (ci == cj) return;  // configuration unchanged

  // Heterogeneous-edge delta: recount the edges incident to the two nodes
  // before and after. The (a,b) edge itself stays heterogeneous; edges
  // counted from both endpoints would double-count only (a,b).
  const auto local_hetero = [&]() {
    std::int64_t het = 0;
    std::int64_t dummy_total [[maybe_unused]] = 0;
    std::int64_t h = 0;
    dummy_total = count_incident_edges(a, color(particle_at(a)), &h);
    het += h;
    dummy_total = count_incident_edges(b, color(particle_at(b)), &h);
    het += h;
    return het;  // counts edge (a,b) twice; consistent before/after
  };

  const std::int64_t het_before = local_hetero();

  positions_[static_cast<std::size_t>(i)] = b;
  positions_[static_cast<std::size_t>(j)] = a;
  occupancy_.insert(lattice::pack(a), j);
  occupancy_.insert(lattice::pack(b), i);

  const std::int64_t het_after = local_hetero();
  hetero_edges_ += het_after - het_before;
}

void ParticleSystem::apply_recolor(ParticleIndex i, Color c) {
  if (c >= kMaxColors) {
    throw std::invalid_argument("apply_recolor: color out of range");
  }
  const Color old = color(i);
  if (old == c) return;  // configuration unchanged
  const Node v = position(i);
  std::int64_t het_old = 0;
  std::int64_t het_new = 0;
  (void)count_incident_edges(v, old, &het_old);
  (void)count_incident_edges(v, c, &het_new);
  colors_[static_cast<std::size_t>(i)] = c;
  hetero_edges_ += het_new - het_old;
  if (static_cast<int>(c) + 1 > num_colors_) num_colors_ = c + 1;
}

std::vector<std::size_t> ParticleSystem::color_histogram() const {
  std::vector<std::size_t> hist(static_cast<std::size_t>(num_colors_), 0);
  for (Color c : colors_) ++hist[c];
  return hist;
}

void ParticleSystem::recount_edges() noexcept {
  std::int64_t edges = 0;
  std::int64_t hetero = 0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    // Count each edge once: from the endpoint with the smaller packed key.
    const Node v = positions_[i];
    for (int k = 0; k < kDegree; ++k) {
      const Node u = lattice::neighbor(v, k);
      if (lattice::pack(u) <= lattice::pack(v)) continue;
      const ParticleIndex p = particle_at(u);
      if (p == kNoParticle) continue;
      ++edges;
      if (colors_[static_cast<std::size_t>(p)] != colors_[i]) ++hetero;
    }
  }
  edges_ = edges;
  hetero_edges_ = hetero;
}

}  // namespace sops::system
