// Heterogeneous particle-system configurations (Sections 2.2-2.3).
//
// A configuration is a set of occupied nodes of G_Δ plus an immutable
// color per particle. The class maintains, incrementally under moves and
// swaps, the three quantities the stationary distribution depends on:
// the edge count e(σ), the heterogeneous edge count h(σ), and — through
// the hole-free identity e(σ) = 3n − p(σ) − 3 — the perimeter p(σ).
//
// Mutations are restricted to the two Markov-chain primitives:
// `apply_move` (one particle to an adjacent empty node) and `apply_swap`
// (two adjacent particles exchange positions). Global invariants
// (connectivity, hole-freeness, boundary walk) are verified by the
// functions in invariants.hpp, which intentionally use independent
// algorithms so tests can cross-check the incremental bookkeeping.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/lattice/triangular.hpp"
#include "src/util/hash_table.hpp"

namespace sops::system {

/// Particle colors c_1, ..., c_k. The paper analyzes k = 2; the chain
/// implementation supports any k <= kMaxColors (Section 5).
using Color = std::uint8_t;
inline constexpr Color kMaxColors = 8;

/// Index of a particle within a ParticleSystem; stable across moves.
using ParticleIndex = std::int32_t;
inline constexpr ParticleIndex kNoParticle = -1;

class ParticleSystem {
 public:
  /// Builds a configuration from node positions and per-particle colors.
  /// Throws std::invalid_argument on duplicate nodes, size mismatch, or
  /// out-of-range colors. Does NOT require connectivity (the chain's
  /// invariants are checked separately); edge counts are exact regardless.
  ParticleSystem(std::span<const lattice::Node> positions,
                 std::span<const Color> colors);

  /// Convenience: all particles share color 0 (homogeneous system).
  explicit ParticleSystem(std::span<const lattice::Node> positions);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] int num_colors() const noexcept { return num_colors_; }

  [[nodiscard]] lattice::Node position(ParticleIndex i) const {
    return positions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Color color(ParticleIndex i) const {
    return colors_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] bool occupied(lattice::Node v) const noexcept {
    return occupancy_.contains(lattice::pack(v));
  }

  /// The particle at `v`, or kNoParticle.
  [[nodiscard]] ParticleIndex particle_at(lattice::Node v) const noexcept {
    const ParticleIndex* p = occupancy_.find(lattice::pack(v));
    return p ? *p : kNoParticle;
  }

  /// Number of occupied neighbors of `v`, excluding the node `exclude`
  /// if it happens to be adjacent (used for the "as if P were absent"
  /// counts of Algorithm 1). Pass `v` itself as exclude for "no exclude".
  [[nodiscard]] int neighbor_count(lattice::Node v,
                                   lattice::Node exclude) const noexcept;

  /// Same, restricted to neighbors of color `c`.
  [[nodiscard]] int neighbor_count_color(lattice::Node v, Color c,
                                         lattice::Node exclude) const noexcept;

  [[nodiscard]] int neighbor_count(lattice::Node v) const noexcept {
    return neighbor_count(v, v);
  }
  [[nodiscard]] int neighbor_count_color(lattice::Node v,
                                         Color c) const noexcept {
    return neighbor_count_color(v, c, v);
  }

  /// e(σ): number of lattice edges with both endpoints occupied.
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }
  /// h(σ): number of heterogeneous (bichromatic) edges.
  [[nodiscard]] std::int64_t hetero_edge_count() const noexcept {
    return hetero_edges_;
  }
  /// a(σ) = e(σ) − h(σ): homogeneous edges.
  [[nodiscard]] std::int64_t homo_edge_count() const noexcept {
    return edges_ - hetero_edges_;
  }

  /// p(σ) via the identity e(σ) = 3n − p(σ) − 3. Valid only for connected,
  /// hole-free configurations (Lemma 9's domain); invariants.hpp provides
  /// the independent boundary-walk perimeter for verification.
  [[nodiscard]] std::int64_t perimeter_by_identity() const noexcept {
    return 3 * static_cast<std::int64_t>(size()) - 3 - edges_;
  }

  /// Moves particle `i` to node `to`. Precondition (checked): `to` is
  /// unoccupied and adjacent to the particle's current node.
  void apply_move(ParticleIndex i, lattice::Node to);

  /// Swaps the positions of two adjacent particles.
  void apply_swap(ParticleIndex i, ParticleIndex j);

  /// Index-free mutators for a caller that keeps its own occupancy
  /// while it runs (SeparationChain::run's arena) and has checked the
  /// preconditions itself. They take caller-supplied deltas (a
  /// heterogeneous swap's h(σ) delta is
  /// −NeighborhoodView::swap_exponent()) and update positions, e(σ) and
  /// h(σ) but not the occupancy index, which they mark stale. Until
  /// sync_index() runs, nothing may read the index: occupied,
  /// particle_at, the neighbor counts, recount_edges and the other
  /// mutators. swap_unindexed requires the
  /// two particles to differ in color (a like-colored swap changes no
  /// configuration, and its caller skips it).
  void move_unindexed(ParticleIndex i, lattice::Node to,
                      std::int64_t edge_delta,
                      std::int64_t hetero_delta) noexcept {
    index_stale_ = true;
    positions_[static_cast<std::size_t>(i)] = to;
    edges_ += edge_delta;
    hetero_edges_ += hetero_delta;
  }
  void swap_unindexed(ParticleIndex i, ParticleIndex j,
                      std::int64_t hetero_delta) noexcept {
    index_stale_ = true;
    std::swap(positions_[static_cast<std::size_t>(i)],
              positions_[static_cast<std::size_t>(j)]);
    hetero_edges_ += hetero_delta;
  }

  /// Brings the occupancy index up to date after index-free mutations:
  /// clears it and inserts all n positions, at unchanged capacity. A
  /// no-op when the index is current.
  void sync_index() noexcept;

  /// Recolors particle `i` in place (spin/orientation flip for chains
  /// whose colors are mutable internal state rather than immutable
  /// species labels). Positions and e(σ) are untouched; h(σ) is updated
  /// incrementally. Same-color recolors are a no-op.
  void apply_recolor(ParticleIndex i, Color c);

  /// Per-color particle counts.
  [[nodiscard]] std::vector<std::size_t> color_histogram() const;

  /// Snapshot of all positions (index order = particle index order).
  [[nodiscard]] const std::vector<lattice::Node>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] const std::vector<Color>& colors() const noexcept {
    return colors_;
  }

  /// Recomputes e(σ) and h(σ) from scratch; used by tests to validate the
  /// incremental bookkeeping.
  void recount_edges() noexcept;

  /// Capacity of the occupancy table. Pre-sized in the constructor to
  /// hold >= 2x the particle count without rehash, and the particle
  /// count never changes, so this value is stable across any trajectory
  /// (asserted by tests).
  [[nodiscard]] std::size_t occupancy_capacity() const noexcept {
    return occupancy_.capacity();
  }

 private:
  [[nodiscard]] std::int64_t count_incident_edges(lattice::Node v,
                                                  Color c,
                                                  std::int64_t* hetero) const
      noexcept;

  std::vector<lattice::Node> positions_;
  std::vector<Color> colors_;
  util::FlatMap<ParticleIndex> occupancy_;
  std::int64_t edges_ = 0;
  std::int64_t hetero_edges_ = 0;
  int num_colors_ = 1;
  bool index_stale_ = false;  ///< an index-free mutation since the sync
};

}  // namespace sops::system
