// The locally-checkable movement conditions of Section 3: Properties 4
// and 5. These guarantee that a contracted particle moving from node l to
// an adjacent empty node l' neither disconnects the system nor creates a
// hole. Both are evaluated purely from the occupancy of the 8-node ring
// around the edge (l, l') — exactly the information a particle of the
// amoebot model can read from its own neighborhood.
#pragma once

#include "src/lattice/triangular.hpp"
#include "src/sops/particle_system.hpp"

namespace sops::core {

/// Occupancy snapshot of the edge ring around (l, l' = l + dir).
struct RingOccupancy {
  // occupied[i] corresponds to lattice::EdgeRing::around(l, dir).nodes[i];
  // indices 0 and 4 are the common neighbors (the candidate set S).
  bool occupied[8] = {};

  static RingOccupancy read(const system::ParticleSystem& sys,
                            lattice::Node l, int dir) noexcept;

  /// |S|: number of occupied common neighbors of l and l'.
  [[nodiscard]] int common_count() const noexcept {
    return (occupied[0] ? 1 : 0) + (occupied[4] ? 1 : 0);
  }
};

/// Property 4: |S| ∈ {1, 2} and every particle in N(l ∪ l') is connected
/// to exactly one particle of S by a path through N(l ∪ l'). On the ring
/// this is: every maximal cyclic run of occupied nodes contains exactly
/// one occupied common neighbor.
[[nodiscard]] bool property4(const RingOccupancy& ring) noexcept;

/// Property 5: |S| = 0 and both N(l)\{l'} and N(l')\{l} are nonempty and
/// connected. On the ring: the common neighbors are empty and on each
/// side-arc of three nodes the occupied subset is nonempty and contiguous.
[[nodiscard]] bool property5(const RingOccupancy& ring) noexcept;

/// Condition (ii) of Algorithm 1: Property 4 or Property 5 holds for the
/// move of the particle at `l` toward direction `dir`. Per-call ring
/// read + run analysis: the reference the step kernel's ring-mask
/// lookup (NeighborhoodView::move_locality_ok) is cross-checked
/// against.
[[nodiscard]] bool move_preserves_invariants_reference(
    const system::ParticleSystem& sys, lattice::Node l, int dir) noexcept;

}  // namespace sops::core
